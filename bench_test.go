// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (Section V). Each benchmark is named for the artifact
// it reproduces — see DESIGN.md's per-experiment index — and reports, via
// b.ReportMetric, the headline quantities to compare against the paper
// (and against EXPERIMENTS.md, which records a reference run).
//
// Run them with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/workload"
)

// BenchmarkTable2Fleet builds the Table II data center (E-T2). The
// interesting output is correctness (asserted) rather than speed; the
// metric reports fleet watts at full load.
func BenchmarkTable2Fleet(b *testing.B) {
	var fullLoadW float64
	for i := 0; i < b.N; i++ {
		dc := cluster.TableIIFleet()
		if dc.Size() != 100 {
			b.Fatalf("fleet size = %d", dc.Size())
		}
		fullLoadW = 0
		for _, pm := range dc.PMs() {
			fullLoadW += pm.Class.ActivePower
		}
	}
	b.ReportMetric(fullLoadW, "fleet-active-W") // 25*400 + 75*300 = 32500
}

// BenchmarkFig2Workload generates and summarizes the week trace (E-F2).
func BenchmarkFig2Workload(b *testing.B) {
	var s workload.Stats
	for i := 0; i < b.N; i++ {
		jobs, _ := exp.WeekTrace(1)
		s = workload.Summarize(jobs)
	}
	b.ReportMetric(float64(s.TotalJobs), "jobs")                // paper: 4574
	b.ReportMetric(float64(s.PeakDayRequests), "peak-day-reqs") // paper: 982 jobs/day
	b.ReportMetric(s.UnderOneGB*100, "pct-under-1GB")           // paper: "most"
	b.ReportMetric(float64(s.UnderOneDay), "jobs-under-1day")   // paper: 2077 (see EXPERIMENTS.md)
}

// comparison caches the expensive three-scheme week run across the Fig 3-5
// benchmarks within one `go test -bench` process.
var comparisonCache []*exp.SchemeRun

func weekComparison(b *testing.B) []*exp.SchemeRun {
	b.Helper()
	if comparisonCache == nil {
		runs, err := exp.Comparison(exp.DefaultOptions(1))
		if err != nil {
			b.Fatal(err)
		}
		comparisonCache = runs
	}
	return comparisonCache
}

func findRun(b *testing.B, runs []*exp.SchemeRun, scheme string) *exp.SchemeRun {
	b.Helper()
	for _, r := range runs {
		if r.Scheme == scheme {
			return r
		}
	}
	b.Fatalf("scheme %s missing", scheme)
	return nil
}

// BenchmarkFig3ActiveServers reproduces Figure 3 (E-F3): hourly active
// servers per scheme. The reported metrics are the week-mean active-server
// counts; the paper's claim is dynamic < both baselines.
func BenchmarkFig3ActiveServers(b *testing.B) {
	var runs []*exp.SchemeRun
	for i := 0; i < b.N; i++ {
		comparisonCache = nil
		runs = weekComparison(b)
	}
	t := exp.Fig3Table(runs)
	for _, s := range t.Series {
		b.ReportMetric(s.Mean(), "meanPMs-"+s.Name)
	}
	dyn := findRun(b, runs, "dynamic")
	ff := findRun(b, runs, "first-fit")
	bf := findRun(b, runs, "best-fit")
	dynMean := exp.Fig3Table([]*exp.SchemeRun{dyn}).Series[0].Mean()
	if dynMean >= exp.Fig3Table([]*exp.SchemeRun{ff}).Series[0].Mean() ||
		dynMean >= exp.Fig3Table([]*exp.SchemeRun{bf}).Series[0].Mean() {
		b.Errorf("figure 3 shape violated: dynamic does not use fewest servers")
	}
}

// BenchmarkFig4HourlyPower reproduces Figure 4 (E-F4): hourly power over
// the week; metrics are total week energy per scheme in kWh.
func BenchmarkFig4HourlyPower(b *testing.B) {
	var runs []*exp.SchemeRun
	for i := 0; i < b.N; i++ {
		runs = weekComparison(b)
	}
	for _, r := range runs {
		b.ReportMetric(r.WeekEnergyKWh, "weekKWh-"+r.Scheme)
	}
	dyn := findRun(b, runs, "dynamic")
	for _, base := range []string{"first-fit", "best-fit"} {
		if dyn.WeekEnergyKWh >= findRun(b, runs, base).WeekEnergyKWh {
			b.Errorf("figure 4 shape violated: dynamic not cheaper than %s", base)
		}
	}
}

// BenchmarkFig5DailyPower reproduces Figure 5 (E-F5): daily energy;
// metrics are the peak-day energies. The paper's shape — dynamic lowest on
// every day — is asserted for the majority of days (day-level noise is
// expected at this fleet size).
func BenchmarkFig5DailyPower(b *testing.B) {
	var runs []*exp.SchemeRun
	for i := 0; i < b.N; i++ {
		runs = weekComparison(b)
	}
	t := exp.Fig5Table(runs)
	for _, s := range t.Series {
		b.ReportMetric(s.Max(), "peakDayKWh-"+s.Name)
	}
	var dynSer, ffSer = t.Series[2], t.Series[0]
	if len(t.Series) != 3 {
		b.Fatal("expected 3 schemes")
	}
	wins := 0
	for d := 0; d < dynSer.Len(); d++ {
		if dynSer.At(d) <= ffSer.At(d) {
			wins++
		}
	}
	if wins*2 < dynSer.Len() {
		b.Errorf("figure 5 shape violated: dynamic cheaper on only %d/%d days", wins, dynSer.Len())
	}
}

// BenchmarkQoSBound verifies the Section IV claim wired into the spare
// controller: under the paper's alpha = 0.05, fewer than 5% of requests
// queue. Reported as a metric for EXPERIMENTS.md.
func BenchmarkQoSBound(b *testing.B) {
	var runs []*exp.SchemeRun
	for i := 0; i < b.N; i++ {
		runs = weekComparison(b)
	}
	dyn := findRun(b, runs, "dynamic")
	b.ReportMetric(dyn.Summary.QueuedFraction*100, "queued-pct")
	if dyn.Summary.QueuedFraction >= 0.05 {
		b.Errorf("QoS bound violated: %.2f%% of requests queued", dyn.Summary.QueuedFraction*100)
	}
}

// BenchmarkAblationFactors runs the factor ablation (E-A1): the dynamic
// scheme with each probability factor removed in turn.
func BenchmarkAblationFactors(b *testing.B) {
	opts := exp.DefaultOptions(1)
	var runs []*exp.SchemeRun
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = exp.AblateFactors(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range runs {
		b.ReportMetric(r.WeekEnergyKWh, "weekKWh-"+r.Scheme)
	}
}

// BenchmarkAblationThreshold sweeps MIG_threshold (E-A1).
func BenchmarkAblationThreshold(b *testing.B) {
	opts := exp.DefaultOptions(1)
	var runs []*exp.SchemeRun
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = exp.AblateThreshold(opts, []float64{1.01, 1.05, 1.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range runs {
		b.ReportMetric(float64(r.Summary.Migrations), "migrations-"+r.Scheme)
	}
}
