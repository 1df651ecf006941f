package exp

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// smallTrace builds a fast, fragmenting workload for unit tests: a mix of
// short and long single-core requests over ~4 hours.
func smallTrace() []workload.Request {
	var rs []workload.Request
	for i := 0; i < 150; i++ {
		run := 1500.0
		if i%3 == 0 {
			run = 12000
		}
		rs = append(rs, workload.Request{
			JobID: i, Submit: float64(i) * 60, CPUCores: 1, MemoryGB: 0.5,
			EstimatedRunTime: run, RunTime: run,
		})
	}
	return rs
}

func smallFleet() *cluster.Datacenter {
	return cluster.TableIIFleetScaled(12)
}

func smallOptions() Options {
	opts := DefaultOptions(1)
	opts.Trace = smallTrace()
	opts.Fleet = smallFleet
	return opts
}

func TestWeekTraceMatchesPaperCounts(t *testing.T) {
	jobs, reqs := WeekTrace(1)
	if len(jobs) != 4574 {
		t.Errorf("jobs = %d, want 4574", len(jobs))
	}
	if len(reqs) <= len(jobs) {
		t.Errorf("requests (%d) should exceed jobs (%d) after core splitting", len(reqs), len(jobs))
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Submit < reqs[i-1].Submit {
			t.Fatal("requests not sorted")
		}
	}
}

func TestComparisonRunsAllSchemes(t *testing.T) {
	runs, err := Comparison(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	names := []string{"first-fit", "best-fit", "dynamic"}
	for i, r := range runs {
		if r.Scheme != names[i] {
			t.Errorf("run %d scheme = %q", i, r.Scheme)
		}
		if r.WeekEnergyKWh <= 0 {
			t.Errorf("%s week energy = %g", r.Scheme, r.WeekEnergyKWh)
		}
		if r.Summary.VMsCompleted != 150 {
			t.Errorf("%s completed %d/150", r.Scheme, r.Summary.VMsCompleted)
		}
	}
}

func TestComparisonUnknownScheme(t *testing.T) {
	opts := smallOptions()
	opts.Schemes = []string{"bogus"}
	if _, err := Comparison(opts); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestDynamicWinsOnFragmentingTrace(t *testing.T) {
	// Compare the bare placement schemes: on a 12-node fleet the spare
	// controller's QoS headroom would dominate the consolidation gain
	// (the full-scale comparison with spares lives in the benchmarks).
	opts := smallOptions()
	opts.SpareForDynamic = false
	runs, err := Comparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*SchemeRun{}
	for _, r := range runs {
		byName[r.Scheme] = r
	}
	dyn, ff := byName["dynamic"], byName["first-fit"]
	if dyn.Summary.MeanActivePMs >= ff.Summary.MeanActivePMs {
		t.Errorf("dynamic mean active %.2f >= first-fit %.2f",
			dyn.Summary.MeanActivePMs, ff.Summary.MeanActivePMs)
	}
}

func TestFigTablesShape(t *testing.T) {
	runs, err := Comparison(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	f3 := Fig3Table(runs)
	if len(f3.Series) != 3 || f3.TimeLabel != "hour" {
		t.Errorf("fig3 shape wrong")
	}
	for _, s := range f3.Series {
		if s.Len() > WeekHours {
			t.Errorf("fig3 series %s longer than the week window", s.Name)
		}
	}
	f4 := Fig4Table(runs)
	if len(f4.Series) != 3 {
		t.Error("fig4 shape wrong")
	}
	f5 := Fig5Table(runs)
	if f5.TimeLabel != "day" {
		t.Error("fig5 label wrong")
	}
	// Daily sums must equal hourly sums within the window.
	for i := range runs {
		if h, d := f4.Series[i].Sum(), f5.Series[i].Sum(); h != d {
			t.Errorf("scheme %d: daily %g != hourly %g", i, d, h)
		}
	}
}

func TestFig2Report(t *testing.T) {
	out := Fig2Report(1)
	for _, want := range []string{"4574", "day 2: ", "peak day", "memory", "runtime"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2Report missing %q", want)
		}
	}
}

func TestTable2Report(t *testing.T) {
	out := Table2Report()
	for _, want := range []string{"25 fast + 75 slow = 100 nodes", "400", "240", "300", "180", "30", "40", "45", "55"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2Report missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryRowsUseWeekEnergy(t *testing.T) {
	runs, err := Comparison(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := SummaryRows(runs)
	for i, row := range rows {
		if row.TotalEnergyKWh != runs[i].WeekEnergyKWh {
			t.Errorf("row %d energy = %g, want week energy %g", i, row.TotalEnergyKWh, runs[i].WeekEnergyKWh)
		}
	}
}

func TestSavingsReport(t *testing.T) {
	runs, err := Comparison(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := SavingsReport(runs)
	if !strings.Contains(out, "dynamic vs first-fit") || !strings.Contains(out, "dynamic vs best-fit") {
		t.Errorf("SavingsReport = %q", out)
	}
	if got := SavingsReport(runs[:2]); !strings.Contains(got, "no dynamic run") {
		t.Errorf("missing-dynamic report = %q", got)
	}
}

func TestAblateFactors(t *testing.T) {
	runs, err := AblateFactors(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(runs))
	}
	wantNames := []string{"dynamic", "dyn-no-vir", "dyn-no-eff", "dyn-no-rel"}
	for i, r := range runs {
		if r.Scheme != wantNames[i] {
			t.Errorf("run %d = %q, want %q", i, r.Scheme, wantNames[i])
		}
		if r.Summary.VMsCompleted != 150 {
			t.Errorf("%s completed %d/150", r.Scheme, r.Summary.VMsCompleted)
		}
	}
}

func TestAblateThresholdMonotoneMigrations(t *testing.T) {
	runs, err := AblateThreshold(smallOptions(), []float64{1.01, 1.5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	// Higher thresholds migrate no more than lower ones.
	for i := 1; i < len(runs); i++ {
		if runs[i].Summary.Migrations > runs[i-1].Summary.Migrations {
			t.Errorf("threshold %d migrations %d > looser threshold's %d",
				i, runs[i].Summary.Migrations, runs[i-1].Summary.Migrations)
		}
	}
}

func TestAblateRounds(t *testing.T) {
	runs, err := AblateRounds(smallOptions(), []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].Summary.Migrations > runs[1].Summary.Migrations {
		t.Errorf("1-round pass migrated more (%d) than 10-round (%d)",
			runs[0].Summary.Migrations, runs[1].Summary.Migrations)
	}
}

func TestAblateSpareAlpha(t *testing.T) {
	runs, err := AblateSpareAlpha(smallOptions(), []float64{0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 { // nospare + 2 alphas
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].Scheme != "dyn-nospare" {
		t.Errorf("first run = %q", runs[0].Scheme)
	}
	// Spares never hurt the wait metric relative to no spares.
	for _, r := range runs[1:] {
		if r.Summary.MeanWaitSeconds > runs[0].Summary.MeanWaitSeconds+1 {
			t.Errorf("%s wait %.1f worse than no-spare %.1f",
				r.Scheme, r.Summary.MeanWaitSeconds, runs[0].Summary.MeanWaitSeconds)
		}
	}
}

func TestAblationReport(t *testing.T) {
	runs, err := AblateRounds(smallOptions(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	out := AblationReport("rounds", runs)
	if !strings.Contains(out, "rounds") || !strings.Contains(out, "dyn-r1") {
		t.Errorf("report = %q", out)
	}
}

func TestAblateMigrationModel(t *testing.T) {
	runs, err := AblateMigrationModel(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Scheme != "dyn-instant" || runs[1].Scheme != "dyn-timed" {
		t.Fatalf("runs = %v", runs)
	}
	// Locking in-flight VMs perturbs the decision trajectory, so exact
	// migration counts differ between models; both must stay in the same
	// ballpark and complete all work.
	lo, hi := runs[0].Summary.Migrations, runs[1].Summary.Migrations
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || hi > 2*lo+10 {
		t.Errorf("migration counts diverge wildly: instant %d vs timed %d",
			runs[0].Summary.Migrations, runs[1].Summary.Migrations)
	}
	for _, r := range runs {
		if r.Summary.VMsCompleted != 150 {
			t.Errorf("%s completed %d/150", r.Scheme, r.Summary.VMsCompleted)
		}
	}
}

func TestOracleSeriesFloorsSchemes(t *testing.T) {
	opts := smallOptions()
	runs, err := Comparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := OracleSeries(opts.Trace, opts.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Len() != WeekHours {
		t.Fatalf("oracle samples = %d", oracle.Len())
	}
	// The oracle's mean must not exceed any scheme's mean active count
	// over the same window (offline packing with perfect knowledge).
	om := oracle.Mean()
	for _, r := range runs {
		if m := r.ActivePMs.Mean(); om > m+0.5 {
			t.Errorf("oracle mean %.2f above %s's %.2f", om, r.Scheme, m)
		}
	}
	out := OracleReport(runs, oracle)
	if !strings.Contains(out, "oracle-ffd") || !strings.Contains(out, "floor") {
		t.Errorf("report = %q", out)
	}
}

func TestOracleSeriesEmptyTrace(t *testing.T) {
	s, err := OracleSeries(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sum() != 0 {
		t.Errorf("empty trace oracle sum = %g", s.Sum())
	}
}

// TestOracleSeriesUndersizedFleetFailsByHour: on one slow PM (4 cores),
// two 3-core VMs alive together from just before hour 2 to just after it
// cannot both be packed, so the series is an error naming hour 2 and not
// a floor of one PM. Each alone, at hours 1 and 3, fits.
func TestOracleSeriesUndersizedFleetFailsByHour(t *testing.T) {
	onePM := func() *cluster.Datacenter {
		slow := cluster.SlowClass
		return cluster.MustNew(cluster.Config{RMin: cluster.TableIIRMin.Clone(), Groups: []cluster.Group{{Class: &slow, Count: 1}}})
	}
	vm := func(submit float64) workload.Request {
		return workload.Request{Submit: submit, CPUCores: 3, MemoryGB: 1, EstimatedRunTime: 200, RunTime: 200}
	}
	reqs := []workload.Request{vm(3500), vm(7100), vm(7150), vm(10800)}
	s, err := OracleSeries(reqs, onePM)
	if err == nil || !strings.Contains(err.Error(), "oracle hour 2:") || !strings.Contains(err.Error(), "1 of 2 live VMs unplaced") {
		t.Fatalf("OracleSeries on an undersized fleet = %v, %v; want an error naming hour 2 and 1 of 2 VMs unplaced", s, err)
	}
}

func TestAnalyzeQoS(t *testing.T) {
	opts := smallOptions()
	runs, err := Comparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	an := AnalyzeQoS(runs[2], opts.Trace, opts.Fleet)
	if an.FleetCores <= 0 {
		t.Fatal("no cores counted")
	}
	if an.OfferedErlangs <= 0 || an.OfferedErlangs > float64(an.FleetCores) {
		t.Errorf("offered load %g implausible for %d cores", an.OfferedErlangs, an.FleetCores)
	}
	if an.ErlangCWaitProb < 0 || an.ErlangCWaitProb > 1 {
		t.Errorf("wait prob %g", an.ErlangCWaitProb)
	}
	if an.CoresForTarget <= 0 || an.CoresForTarget > an.FleetCores {
		t.Errorf("cores for target = %d", an.CoresForTarget)
	}
	out := an.String()
	for _, want := range []string{"Erlang-C", "observed queueing", "boot latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("analysis report missing %q", want)
		}
	}
}
