package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spare"
	"repro/internal/workload"
)

// smokeJobs is the trace length under -smoke: enough arrivals to boot
// machines, queue, migrate and plan spares, small enough that the five
// workloads finish inside `go test`.
const smokeJobs = 300

// weekStride separates the seeds of one invocation's inputs, so that
// invocations on neighbouring seeds share none of them.
const weekStride = 1_000_003

// spec is one benchmark workload. The names are the ledger's row keys;
// later PRs quote them, so they never change.
type spec struct {
	name, why string

	// inputs is how many inputs one invocation measures, each generated from
	// its own seed (inputSeed): the timed runs take them in turn and the
	// metrics are means over them. One week to the next is 15-20% more or
	// less work (README, "Several inputs an invocation"), so a metric of a
	// single week says more about the seed than about the program. The
	// count is sized so that one turn through them takes about 12 s.
	inputs int

	// Single-run workloads: fleet size, the edit applied to the default
	// week, the scheme and its candidate budget (0 = dense matrix).
	nodes      int
	shape      func(*workload.GenConfig)
	scheme     string
	candidateK int

	// noSpare runs without the spare-server controller, the paper's
	// configuration for the static baselines.
	noSpare bool

	// observed turns the obs layer fully on: run tracer and decision
	// tracer into counting sinks, placer wrapped in policy.Recorder.
	observed bool

	// sweep runs exp.RunSweep over {first-fit, best-fit, dynamic} x
	// seeds seed..seed+3 instead of a single sim.
	sweep bool

	// Where the extra per-layer comparisons and checks are taken: each
	// costs whole runs, so each sits on the workload the README's
	// prediction table names for it.
	kwRatio      bool    // core.kw_wall_ratio
	cellsRatio   bool    // cell.c4_wall_ratio
	alsoSparseK  int     // verify: re-run with this CandidateK, must match dense
	maxQueuedPct float64 // verify: the spare controller keeps queueing under this (0 = unchecked)
}

var workloads = []spec{
	{
		name: "paper-week-100", why: "the paper's week on the Table II fleet, dynamic dense: core matrix build + Algorithm 1 are ~96% of the run",
		inputs: 8, nodes: 100, scheme: "dynamic", kwRatio: true, alsoSparseK: 64, maxQueuedPct: 7,
	},
	{
		name: "fleet-500-sparse", why: "500 PMs, day 1 at 5x, dynamic with CandidateK=64: the same core layer through the candidate index and SparseMatrix",
		inputs: 6, nodes: 500, scheme: "dynamic", candidateK: 64, kwRatio: true,
		shape: func(c *workload.GenConfig) { c.DailyJobs = []int{5 * c.DailyJobs[0]} },
	},
	{
		name: "static-fleet-1k", why: "1000 PMs, the week at 10x, first-fit without spares: bypasses core, so sim handlers, cluster scans and power carry the run",
		inputs: 6, nodes: 1000, scheme: "first-fit", noSpare: true, cellsRatio: true,
		shape: func(c *workload.GenConfig) {
			for i := range c.DailyJobs {
				c.DailyJobs[i] *= 10
			}
		},
	},
	{
		name: "compare-sweep", why: "exp.RunSweep over 3 schemes x 4 seeds, how Figures 3-5 are produced: the only workload where the parallel sweep layers do anything",
		inputs: 3, sweep: true,
	},
	{
		name: "paper-week-100-observed", why: "paper-week-100 with run tracer, decision tracer and policy.Recorder on: the obs layer's write path and its cost",
		// The same eight weeks as paper-week-100: the rows differ by obs alone.
		inputs: 8, nodes: 100, scheme: "dynamic", observed: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// inputCount is how many inputs an invocation measures: -smoke takes two, so
// that the reduction over inputs is exercised.
func (w spec) inputCount(smoke bool) int {
	if smoke {
		return 2
	}
	return w.inputs
}

// inputSeed is the seed input i of an invocation is generated from; input 0
// is the invocation's own seed. compare-sweep's input i is the four weeks
// inputSeed(i) .. inputSeed(i)+3.
func inputSeed(seed int64, i int) int64 { return seed + int64(i)*weekStride }

// variant is how one run departs from the workload's defaults.
type variant struct {
	candidateK    int       // overrides spec.candidateK when > 0
	kernelWorkers int       // sim.Config.KernelWorkers (0 = auto)
	cells         int       // sim.Config.Cells (0 = monolith)
	plain         bool      // drop the observed workload's obs layer
	rec           *recorder // record the span tree (the traced run)
	splitAt       uint64    // checkpoint at this event, finish from a restored Sim (the verify run)
}

// rep is what one repetition (set-up plus one full run) measured.
type rep struct {
	setupS               float64 // inputs from the seed, through the return of sim.New
	genS, toReqS, fleetS float64 // set-up by layer
	measured                     // the run itself: sim.New -> Finish, or one RunSweep call

	fp        uint64 // fingerprint of the run's outputs
	ops       int    // VM requests submitted
	completed int    // of which completed at Finish
	events    uint64

	// The simulated statistics; on compare-sweep the dynamic scheme's
	// cross-seed means.
	windowHours                int     // length of the submission window
	energyKWh                  float64 // over the submission window
	totalEnergyKWh, migrations float64
	queuedPct                  float64

	// Verify run only.
	saveMs, restoreMs, snapKB float64

	// Kept for the per-layer pass.
	observer        *obs.Observer
	timed           *timedPolicy
	trace, decision *countWriter
	peakPending     int
}

// countWriter is the observed workload's sink: it discards but counts, so
// the tracer pays its formatting and write path without touching disk.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// setup generates the inputs of one run from the seed: trace, fleet,
// placer, and the observability the variant asks for. Everything a run
// mutates is rebuilt here, so repetitions never share state.
func (w spec) setup(seed int64, smoke bool, v variant, r *rep) (sim.Config, error) {
	t0 := time.Now()
	gc := workload.DefaultWeekConfig(seed)
	if w.shape != nil {
		w.shape(&gc)
	}
	jobs, err := workload.Generate(gc)
	if err != nil {
		return sim.Config{}, err
	}
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	workload.SortBySubmit(jobs)
	if smoke && len(jobs) > smokeJobs {
		jobs = jobs[:smokeJobs]
	}
	t1 := time.Now()
	reqs := workload.ToRequests(jobs)
	t2 := time.Now()
	dc := cluster.TableIIFleet()
	if w.nodes != 100 {
		dc = cluster.TableIIFleetScaled(w.nodes)
	}
	t3 := time.Now()
	r.genS, r.toReqS, r.fleetS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	r.ops, r.windowHours = len(reqs), 24*len(gc.DailyJobs)

	placer, err := policy.ByName(w.scheme, seed)
	if err != nil {
		return sim.Config{}, err
	}
	if d, ok := policy.DynamicOf(placer); ok {
		d.Opts.CandidateK = w.candidateK
		if v.candidateK > 0 {
			d.Opts.CandidateK = v.candidateK
		}
	}
	cfg := sim.Config{DC: dc, Placer: placer, Requests: reqs, Cells: v.cells, KernelWorkers: v.kernelWorkers}
	if !w.noSpare {
		sc := spare.DefaultConfig()
		cfg.Spare = &sc
	}
	if w.observed && !v.plain {
		r.trace, r.decision = &countWriter{}, &countWriter{}
		cfg.Obs = obs.NewTracing(r.trace)
		cfg.Obs.Decisions = obs.NewTracer(r.decision)
		cfg.Placer = policy.NewRecorder(placer.(policy.Policy), 0)
	}
	if v.rec != nil {
		if cfg.Obs == nil {
			cfg.Obs = obs.New()
		}
		r.timed = &timedPolicy{p: cfg.Placer.(policy.Policy), rec: v.rec}
		cfg.Placer = r.timed
	}
	r.observer = cfg.Obs
	return cfg, nil
}

// once performs one repetition of a single-run workload: set-up, then
// sim.New -> Step... -> Finish under the clock.
func (w spec) once(seed int64, smoke bool, v variant) (rep, error) {
	var r rep
	runtime.GC()
	t0 := time.Now()
	cfg, err := w.setup(seed, smoke, v, &r)
	if err != nil {
		return r, err
	}
	inputsS := time.Since(t0).Seconds()

	rec, split := v.rec, v.splitAt
	c0 := startCost()
	root := rec.begin(spanRun)
	id := rec.begin(spanNew)
	m, err := sim.New(cfg)
	rec.end(id)
	if err != nil {
		return r, err
	}
	r.setupS = inputsS + c0.wall()

	for {
		if split > 0 && m.Dispatched() == split {
			if m, err = w.restoreInto(seed, smoke, v, m, &r); err != nil {
				return r, err
			}
			split = 0
		}
		if rec != nil && m.Pending() > r.peakPending {
			r.peakPending = m.Pending()
		}
		id = rec.begin(spanStep)
		ok, err := m.Step()
		if err != nil {
			return r, err
		}
		if !ok {
			rec.drop(id) // the draining call dispatched nothing
			break
		}
		rec.end(id)
	}
	id = rec.begin(spanFinish)
	res, err := m.Finish()
	rec.end(id)
	rec.end(root)
	if err != nil {
		return r, err
	}
	r.measured = c0.stop()

	r.events = m.Dispatched()
	r.completed = res.Summary.VMsCompleted
	// Energy over the submission window is what the paper's Figures 4-5
	// integrate (exp.SchemeRun.WeekEnergyKWh for the week). The total also
	// covers the drain after the last arrival: with spares on, the tick
	// chain keeps booting and shutting PMs down until the estimator has
	// forgotten the week, for 30 to 1,700 simulated hours by seed.
	for h := 0; h < r.windowHours; h++ {
		r.energyKWh += res.EnergyKWh.At(h)
	}
	r.totalEnergyKWh = res.Summary.TotalEnergyKWh
	r.migrations = float64(res.Summary.Migrations)
	r.queuedPct = 100 * res.Summary.QueuedFraction
	r.fp = fingerprint(res, r.events)
	return r, nil
}

// restoreInto checkpoints m, restores the checkpoint into a freshly set
// up config and returns the restored Sim, timing both directions.
func (w spec) restoreInto(seed int64, smoke bool, v variant, m *sim.Sim, r *rep) (*sim.Sim, error) {
	var buf bytes.Buffer
	t := time.Now()
	if err := m.Save(&buf); err != nil {
		return nil, fmt.Errorf("save at event %d: %w", v.splitAt, err)
	}
	r.saveMs = time.Since(t).Seconds() * 1e3
	r.snapKB = float64(buf.Len()) / 1e3
	var scratch rep
	cfg, err := w.setup(seed, smoke, v, &scratch)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	m2, err := sim.Restore(cfg, &buf)
	if err != nil {
		return nil, fmt.Errorf("restore at event %d: %w", v.splitAt, err)
	}
	r.restoreMs = time.Since(t).Seconds() * 1e3
	return m2, nil
}

// fingerprint hashes everything a run reports: the summary, every
// migration, the hourly series and the event count. %v prints floats in
// their shortest round-trip form, so equal hashes mean equal bits.
func fingerprint(res *sim.Result, events uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d|", res.Summary, events)
	for _, mv := range res.Moves {
		fmt.Fprintf(h, "%v,", mv)
	}
	fmt.Fprintf(h, "|%v|%v|%v", res.ActivePMs.Values, res.EnergyKWh.Values, res.MeanUtilization.Values)
	return h.Sum64()
}

// sweepSchemes is the paper's trio, spelled out because the verification
// reads the report by scheme name.
var sweepSchemes = []string{"first-fit", "best-fit", "dynamic"}

// sweepOnce performs one repetition of compare-sweep: generate the four
// weeks, then one exp.RunSweep call under the clock. observe attaches a
// metrics registry to every run. It returns the report's JSON, the
// benchmark's equality witness across worker counts.
func (w spec) sweepOnce(seed int64, smoke bool, workers int, observe bool) (rep, []byte, []*obs.Observer, *exp.SweepReport, error) {
	var r rep
	runtime.GC()
	t0 := time.Now()
	seeds := []int64{seed, seed + 1, seed + 2, seed + 3}
	traces := make(map[int64][]workload.Request, len(seeds))
	for _, s := range seeds {
		jobs, reqs := exp.WeekTrace(s)
		if smoke && len(jobs) > smokeJobs {
			reqs = workload.ToRequests(jobs[:smokeJobs])
		}
		traces[s] = reqs
		r.ops += len(reqs) * len(sweepSchemes)
	}
	opts := exp.SweepOptions{
		Base: exp.Options{
			SpareForDynamic: true,
			TraceGen:        func(s int64) []workload.Request { return traces[s] },
		},
		Schemes: sweepSchemes,
		Seeds:   seeds,
		Workers: workers,
	}
	var (
		mu        sync.Mutex
		observers []*obs.Observer
	)
	if observe {
		opts.Observe = func(string, int64) *obs.Observer {
			o := obs.New()
			mu.Lock()
			observers = append(observers, o)
			mu.Unlock()
			return o
		}
	}
	r.setupS = time.Since(t0).Seconds()
	r.genS = r.setupS

	c0 := startCost()
	report, err := exp.RunSweep(opts)
	if err != nil {
		return r, nil, nil, nil, err
	}
	r.measured = c0.stop()

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return r, nil, nil, nil, err
	}
	h := fnv.New64a()
	h.Write(out)
	r.fp = h.Sum64()
	for _, run := range report.Runs {
		r.completed += run.VMsCompleted
		if run.Scheme == "dynamic" {
			r.totalEnergyKWh += run.TotalEnergyKWh / float64(len(seeds))
		}
	}
	for _, a := range report.Aggregates {
		if a.Scheme == "dynamic" {
			r.energyKWh = a.WeekEnergyKWh.Mean
			r.migrations = a.Migrations.Mean
			r.queuedPct = 100 * a.QueuedFraction.Mean
		}
	}
	return r, out, observers, report, nil
}

// sweepWorkers is compare-sweep's concurrency: what cmd/sweep would use on
// this host, capped at 4 so the number means the same on larger boxes.
func sweepWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}
