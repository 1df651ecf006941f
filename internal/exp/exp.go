// Package exp assembles the paper's experiments: it wires the workload
// generator, the Table II fleet, the placement schemes, and the simulator
// into the exact runs behind each figure and table of Section V, plus the
// ablation studies listed in DESIGN.md. cmd/experiments and cmd/sweep
// drive this package; run.go holds the one recipe and the one runner
// every study goes through.
package exp

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// WeekHours is the length of the paper's evaluation window: Figures 3-5
// plot one week. Jobs still running past the window complete (and the
// summary's total energy includes them), but figure series are truncated
// here.
const WeekHours = 168

// Options configures a comparison run.
type Options struct {
	// Seed drives workload generation and the randomized schemes.
	Seed int64

	// Schemes lists the placement schemes to compare; default is the
	// paper's trio (first-fit, best-fit, dynamic).
	Schemes []string

	// SpareForDynamic attaches the Section IV spare-server controller
	// to the dynamic scheme (the paper's full system). Static schemes
	// never get one.
	SpareForDynamic bool

	// Fleet builds the data center per run; default Table II.
	Fleet func() *cluster.Datacenter

	// Failures optionally injects PM failures into every run.
	Failures failure.Config

	// Trace overrides the generated workload (used by tests and custom
	// studies); nil selects TraceGen(Seed).
	Trace []workload.Request

	// TraceGen, when set, supplies the workload for a seed, which is
	// what a sweep across seeds (RunSweep) varies; nil selects
	// WeekTrace.
	TraceGen func(seed int64) []workload.Request

	// observe is SweepOptions.Observe, handed to each run by RunSweep.
	observe func(scheme string, seed int64) *obs.Observer
}

// DefaultOptions returns the paper's evaluation setup.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:            seed,
		Schemes:         []string{"first-fit", "best-fit", "dynamic"},
		SpareForDynamic: true,
	}
}

// Workload loads the trace a command-line run replays: the Standard
// Workload Format file at swf, or the synthetic week for seed when swf is
// empty; cancelled and small-memory jobs dropped and the rest put in
// submit order as Section V.A describes, cut to the first maxJobs jobs
// (0 keeps all), and memory normalized per core into single-core VM
// requests.
func Workload(swf string, seed int64, maxJobs int) ([]workload.Job, []workload.Request, error) {
	var jobs []workload.Job
	if swf == "" {
		jobs = workload.MustGenerate(workload.DefaultWeekConfig(seed))
	} else {
		f, err := os.Open(swf)
		if err != nil {
			return nil, nil, err
		}
		jobs, err = workload.ParseSWF(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		// A log may be out of order; the generator emits submit order.
		workload.SortBySubmit(jobs)
	}
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	if maxJobs > 0 && maxJobs < len(jobs) {
		jobs = jobs[:maxJobs]
	}
	return jobs, workload.ToRequests(jobs), nil
}

// WeekTrace is the paper's week-long workload for seed: Workload without
// a file and without a cut.
func WeekTrace(seed int64) ([]workload.Job, []workload.Request) {
	jobs, reqs, _ := Workload("", seed, 0) // only reading a file can fail
	return jobs, reqs
}

// requests is the trace a run under o replays: Trace if set, else
// TraceGen's or the generated week for Seed.
func (o Options) requests() []workload.Request {
	switch {
	case o.Trace != nil:
		return o.Trace
	case o.TraceGen != nil:
		return o.TraceGen(o.Seed)
	}
	_, reqs := WeekTrace(o.Seed)
	return reqs
}

// Comparison runs every scheme in opts over the same trace, at most
// GOMAXPROCS of them at a time, and returns the runs in the order of
// opts.Schemes. Every scheme that fails is named in the joined error.
func Comparison(opts Options) ([]*SchemeRun, error) {
	return comparison(opts, 0)
}

// comparison is Comparison at a given worker count (see runAll).
func comparison(opts Options, workers int) ([]*SchemeRun, error) {
	if len(opts.Schemes) == 0 {
		opts.Schemes = DefaultOptions(opts.Seed).Schemes
	}
	reqs := opts.requests()
	return runRows(len(opts.Schemes), workers, func(i int) (*SchemeRun, error) {
		return RunScheme(opts.Schemes[i], reqs, opts)
	})
}

// truncate clips a series to the figure window.
func truncate(s *metrics.Series, n int) *metrics.Series {
	out := metrics.NewSeries(s.Name, s.Step)
	for i := 0; i < n && i < s.Len(); i++ {
		out.Append(s.At(i))
	}
	return out
}

// Fig3Table builds Figure 3: hourly active-server counts per scheme over
// the week.
func Fig3Table(runs []*SchemeRun) *metrics.Table {
	t := &metrics.Table{TimeLabel: "hour"}
	for _, r := range runs {
		t.Series = append(t.Series, truncate(r.ActivePMs, WeekHours))
	}
	return t
}

// Fig4Table builds Figure 4: hourly energy (kWh per hour, numerically the
// mean kW) per scheme over the week.
func Fig4Table(runs []*SchemeRun) *metrics.Table {
	t := &metrics.Table{TimeLabel: "hour"}
	for _, r := range runs {
		t.Series = append(t.Series, truncate(r.EnergyKWh, WeekHours))
	}
	return t
}

// Fig5Table builds Figure 5: daily energy per scheme over the week.
func Fig5Table(runs []*SchemeRun) *metrics.Table {
	t := &metrics.Table{TimeLabel: "day"}
	for _, r := range runs {
		t.Series = append(t.Series, truncate(r.EnergyKWh, WeekHours).Downsample(24))
	}
	return t
}

// Fig2Report renders the workload characteristics of Figure 2.
func Fig2Report(seed int64) string {
	jobs, reqs := WeekTrace(seed)
	s := workload.Summarize(jobs)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — workload characteristics (seed %d)\n", seed)
	fmt.Fprintf(&b, "jobs after filtering: %d (paper: 4574)\n", len(jobs))
	fmt.Fprintf(&b, "single-core VM requests: %d\n", len(reqs))
	fmt.Fprintf(&b, "\n(a) VM requests per day (paper peak: 982 jobs/day):\n")
	for d, n := range s.JobsPerDay {
		fmt.Fprintf(&b, "  day %d: %d requests\n", d, n)
	}
	fmt.Fprintf(&b, "peak day: %d with %d requests\n", s.PeakDay, s.PeakDayRequests)
	fmt.Fprintf(&b, "\n(b) per-request memory (GB); %.1f%% below 1 GB (paper: most jobs < 1 GB):\n%s",
		s.UnderOneGB*100, s.MemHistogram.String())
	fmt.Fprintf(&b, "\n(c) runtime (hours); %d jobs < 1 day (paper: 2077 — see EXPERIMENTS.md\n"+
		"    for the load-feasibility recalibration note):\n%s",
		s.UnderOneDay, s.RuntimeHistogram.String())
	return b.String()
}

// Table2Report renders the Table II parameters actually encoded in the
// fleet, for verification against the paper.
func Table2Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — data center parameter settings\n")
	fmt.Fprintf(&b, "%-30s %8s %8s\n", "", "Fast", "Slow")
	rows := []struct {
		label      string
		fast, slow float64
	}{
		{"Number", 25, 75},
		{"VM creation time (s)", cluster.FastClass.CreationTime, cluster.SlowClass.CreationTime},
		{"VM migration time (s)", cluster.FastClass.MigrationTime, cluster.SlowClass.MigrationTime},
		{"ON/OFF overhead (s)", cluster.FastClass.OnOffOverhead, cluster.SlowClass.OnOffOverhead},
		{"Total cores", cluster.FastClass.Capacity[cluster.ResCPU], cluster.SlowClass.Capacity[cluster.ResCPU]},
		{"Memory (GB)", cluster.FastClass.Capacity[cluster.ResMem], cluster.SlowClass.Capacity[cluster.ResMem]},
		{"Active power (W)", cluster.FastClass.ActivePower, cluster.SlowClass.ActivePower},
		{"Idle power (W)", cluster.FastClass.IdlePower, cluster.SlowClass.IdlePower},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %8g %8g\n", r.label, r.fast, r.slow)
	}
	dc := cluster.TableIIFleet()
	counts := map[string]int{}
	for _, p := range dc.PMs() {
		counts[p.Class.Name]++
	}
	fmt.Fprintf(&b, "fleet check: %d fast + %d slow = %d nodes\n", counts["fast"], counts["slow"], dc.Size())
	return b.String()
}

// SummaryRows converts scheme runs into summary rows (figure-window energy
// replaces whole-run energy so the comparison matches the paper's plots).
func SummaryRows(runs []*SchemeRun) []metrics.Summary {
	rows := make([]metrics.Summary, 0, len(runs))
	for _, r := range runs {
		s := r.Summary
		s.TotalEnergyKWh = r.WeekEnergyKWh
		rows = append(rows, s)
	}
	return rows
}

// SavingsReport states the headline result: dynamic's energy saving over
// each baseline within the figure window.
func SavingsReport(runs []*SchemeRun) string {
	var dyn *SchemeRun
	for _, r := range runs {
		if strings.HasPrefix(r.Scheme, "dynamic") {
			dyn = r
			break
		}
	}
	if dyn == nil {
		return "no dynamic run in comparison\n"
	}
	ordered := append([]*SchemeRun(nil), runs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].WeekEnergyKWh < ordered[j].WeekEnergyKWh })
	var b strings.Builder
	for _, r := range ordered {
		if r == dyn {
			continue
		}
		save := (r.WeekEnergyKWh - dyn.WeekEnergyKWh) / r.WeekEnergyKWh * 100
		fmt.Fprintf(&b, "dynamic vs %-10s week energy %7.1f vs %7.1f kWh -> %+.1f%% saving\n",
			r.Scheme, dyn.WeekEnergyKWh, r.WeekEnergyKWh, save)
	}
	return b.String()
}
