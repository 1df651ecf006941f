package sim

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/failure"
	"repro/internal/policy"
	"repro/internal/spare"
	"repro/internal/workload"
)

// smallFleet builds a 2-fast + 4-slow datacenter.
func smallFleet() *cluster.Datacenter {
	fast := cluster.FastClass
	slow := cluster.SlowClass
	return cluster.MustNew(cluster.Config{
		RMin: cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{
			{Class: &fast, Count: 2},
			{Class: &slow, Count: 4},
		},
	})
}

// reqs builds n single-core requests arriving every gap seconds, each
// running for run seconds.
func reqs(n int, gap, run float64) []workload.Request {
	out := make([]workload.Request, n)
	for i := range out {
		out[i] = workload.Request{
			JobID: i + 1, Submit: float64(i) * gap,
			CPUCores: 1, MemoryGB: 0.5,
			EstimatedRunTime: run, RunTime: run,
		}
	}
	return out
}

func TestRunConfigValidation(t *testing.T) {
	good := Config{DC: smallFleet(), Placer: policy.FirstFit{}, Requests: reqs(1, 1, 10)}
	if _, err := Run(good); err != nil {
		t.Fatalf("good config failed: %v", err)
	}
	bad := []Config{
		{Placer: policy.FirstFit{}},
		{DC: smallFleet()},
		{DC: smallFleet(), Placer: policy.FirstFit{}, ControlPeriod: -1},
		{DC: smallFleet(), Placer: policy.FirstFit{}, MeterBin: -1},
		{DC: smallFleet(), Placer: policy.FirstFit{}, Failures: failure.Config{MTBF: -1}},
		{DC: smallFleet(), Placer: policy.FirstFit{},
			Requests: []workload.Request{{Submit: 5, CPUCores: 1, MemoryGB: 1, RunTime: 1}, {Submit: 1, CPUCores: 1, MemoryGB: 1, RunTime: 1}}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunCompletesAllVMs(t *testing.T) {
	for _, name := range []string{"first-fit", "best-fit", "worst-fit", "random", "dynamic"} {
		p, err := policy.ByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			DC:       smallFleet(),
			Placer:   p,
			Requests: reqs(40, 120, 3000),
			Audit:    audit.Event,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Summary.VMsCompleted != 40 {
			t.Errorf("%s: completed %d/40", name, res.Summary.VMsCompleted)
		}
		if res.Summary.TotalEnergyKWh <= 0 {
			t.Errorf("%s: no energy recorded", name)
		}
		if res.Scheme != name {
			t.Errorf("scheme = %q", res.Scheme)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{
			DC:       smallFleet(),
			Placer:   policy.NewDynamic(),
			Requests: reqs(60, 90, 2500),
			Spare:    func() *spare.Config { c := spare.DefaultConfig(); return &c }(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Summary.TotalEnergyKWh != b.Summary.TotalEnergyKWh {
		t.Errorf("energy differs: %g vs %g", a.Summary.TotalEnergyKWh, b.Summary.TotalEnergyKWh)
	}
	if len(a.Moves) != len(b.Moves) {
		t.Errorf("moves differ: %d vs %d", len(a.Moves), len(b.Moves))
	}
	if a.ActivePMs.Len() != b.ActivePMs.Len() {
		t.Fatalf("series lengths differ")
	}
	for i := range a.ActivePMs.Values {
		if a.ActivePMs.Values[i] != b.ActivePMs.Values[i] {
			t.Fatalf("active series diverges at %d", i)
		}
	}
}

func TestRunEnergyMatchesSeries(t *testing.T) {
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.FirstFit{},
		Requests: reqs(20, 200, 4000),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range res.EnergyKWh.Values {
		sum += v
	}
	if math.Abs(sum-res.Summary.TotalEnergyKWh) > 1e-9*(1+sum) {
		t.Errorf("series sum %g != total %g", sum, res.Summary.TotalEnergyKWh)
	}
}

func TestRunBootsOnDemandAndShutsDown(t *testing.T) {
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.FirstFit{},
		Requests: reqs(10, 60, 1200),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Boots == 0 {
		t.Error("no PMs were booted")
	}
	// After the run everything idles and the power policy (spare target
	// 0) has shut the fleet down; the final active samples must be 0.
	last := res.ActivePMs.At(res.ActivePMs.Len() - 1)
	if last != 0 {
		t.Errorf("final active sample = %g, want 0", last)
	}
}

func TestRunQueueingWhenColdStart(t *testing.T) {
	// First arrivals find everything off; they must wait ~boot time.
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.FirstFit{},
		Requests: reqs(5, 1, 600),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.QueuedFraction == 0 {
		t.Error("cold-start arrivals did not queue")
	}
	if res.Summary.MeanWaitSeconds <= 0 {
		t.Error("no wait recorded")
	}
	if res.Summary.VMsCompleted != 5 {
		t.Errorf("completed = %d", res.Summary.VMsCompleted)
	}
}

func TestRunDynamicMigrates(t *testing.T) {
	// Staggered arrivals/departures fragment load so the dynamic scheme
	// has migrations to perform.
	var rs []workload.Request
	for i := 0; i < 30; i++ {
		run := 2000.0
		if i%2 == 0 {
			run = 9000
		}
		rs = append(rs, workload.Request{
			JobID: i, Submit: float64(i) * 50, CPUCores: 1, MemoryGB: 1,
			EstimatedRunTime: run, RunTime: run,
		})
	}
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.NewDynamic(),
		Requests: rs,
		Audit:    audit.Event,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) == 0 {
		t.Error("dynamic scheme performed no migrations")
	}
	if res.Summary.Migrations != len(res.Moves) {
		t.Error("summary migration count mismatch")
	}
}

func TestRunStaticNeverMigrates(t *testing.T) {
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.BestFit{},
		Requests: reqs(30, 100, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 0 {
		t.Errorf("static scheme migrated %d times", len(res.Moves))
	}
}

func TestRunSpareControllerKeepsIdleCapacity(t *testing.T) {
	sc := spare.DefaultConfig()
	res, err := Run(Config{
		DC:            smallFleet(),
		Placer:        policy.NewDynamic(),
		Requests:      reqs(200, 30, 1800), // steady stream, 2 arrivals/min
		ControlPeriod: 600,
		Spare:         &sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SparePlans) == 0 {
		t.Fatal("no spare plans recorded")
	}
	positive := 0
	for _, p := range res.SparePlans {
		if p.Spares > 0 {
			positive++
		}
		if p.Spares < 0 {
			t.Fatalf("negative spare plan: %+v", p)
		}
	}
	if positive == 0 {
		t.Error("spare controller never requested spares under steady load")
	}
}

// TestSparePlansOverControlPeriod: the controller's window is the run's
// control period. One VM with a 2400 s estimate starts within the first
// period; at ControlPeriod 600 the plan at t=600 must not count it as
// departing (an hour-long window would), and the plan at t=2400 must.
func TestSparePlansOverControlPeriod(t *testing.T) {
	sc := spare.DefaultConfig()
	res, err := Run(Config{
		DC:            smallFleet(),
		Placer:        policy.FirstFit{},
		Requests:      reqs(1, 0, 2400),
		ControlPeriod: 600,
		Spare:         &sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	departing := map[float64]int{}
	for _, p := range res.SparePlans {
		departing[p.At] = p.NDeparture
	}
	if n, ok := departing[600]; !ok || n != 0 {
		t.Errorf("plan at t=600 predicts %d departures (planned: %t), want 0 over a 600 s window", n, ok)
	}
	if departing[2400] != 1 {
		t.Errorf("plan at t=2400 predicts %d departures, want 1: the VM ends within 600 s", departing[2400])
	}
}

func TestRunSpareReducesQueueing(t *testing.T) {
	// With spares pre-booted, fewer arrivals should queue than without.
	load := reqs(300, 20, 1500)
	noSpare, err := Run(Config{DC: smallFleet(), Placer: policy.NewDynamic(), Requests: load})
	if err != nil {
		t.Fatal(err)
	}
	sc := spare.DefaultConfig()
	withSpare, err := Run(Config{DC: smallFleet(), Placer: policy.NewDynamic(), Requests: load, Spare: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if withSpare.Summary.QueuedFraction > noSpare.Summary.QueuedFraction {
		t.Errorf("spares increased queueing: %.3f vs %.3f",
			withSpare.Summary.QueuedFraction, noSpare.Summary.QueuedFraction)
	}
}

func TestRunFailuresRequeueVMs(t *testing.T) {
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.NewDynamic(),
		Requests: reqs(40, 100, 5000),
		Failures: failure.Config{
			MTBF: 20000, RepairTime: 300,
			ReliabilityDecay: 0.8, MinReliability: 0.1, Seed: 3,
		},
		Audit: audit.Event,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Skip("no failures sampled with this seed/MTBF; adjust seed")
	}
	if res.Summary.VMsCompleted != 40 {
		t.Errorf("completed %d/40 despite failures", res.Summary.VMsCompleted)
	}
}

func TestRunRejectsImpossibleRequests(t *testing.T) {
	rs := reqs(3, 10, 100)
	rs[1].MemoryGB = 10000 // fits nowhere
	res, err := Run(Config{DC: smallFleet(), Placer: policy.FirstFit{}, Requests: rs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", res.Summary.Rejected)
	}
	if res.Summary.VMsCompleted != 2 {
		t.Errorf("completed = %d, want 2", res.Summary.VMsCompleted)
	}
}

func TestRunActiveSeriesSampledHourly(t *testing.T) {
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.FirstFit{},
		Requests: reqs(8, 1800, 7200), // spans several hours
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActivePMs.Step != 3600 {
		t.Errorf("series step = %g", res.ActivePMs.Step)
	}
	if res.ActivePMs.Len() < 4 {
		t.Errorf("series too short: %d", res.ActivePMs.Len())
	}
	if res.ActivePMs.At(0) != 0 {
		t.Errorf("t=0 sample = %g, want 0 (cold start)", res.ActivePMs.At(0))
	}
}

func TestRunDynamicBeatsFirstFitOnEnergy(t *testing.T) {
	// The headline claim in miniature: alternating short/long jobs cause
	// fragmentation that only the dynamic scheme can consolidate away.
	var rs []workload.Request
	for i := 0; i < 120; i++ {
		run := 1200.0
		if i%3 == 0 {
			run = 20000
		}
		rs = append(rs, workload.Request{
			JobID: i, Submit: float64(i) * 40, CPUCores: 1, MemoryGB: 0.5,
			EstimatedRunTime: run, RunTime: run,
		})
	}
	ff, err := Run(Config{DC: smallFleet(), Placer: policy.FirstFit{}, Requests: rs})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Run(Config{DC: smallFleet(), Placer: policy.NewDynamic(), Requests: rs})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Summary.TotalEnergyKWh >= ff.Summary.TotalEnergyKWh {
		t.Errorf("dynamic %.2f kWh did not beat first-fit %.2f kWh",
			dyn.Summary.TotalEnergyKWh, ff.Summary.TotalEnergyKWh)
	}
	if dyn.Summary.MeanActivePMs >= ff.Summary.MeanActivePMs {
		t.Errorf("dynamic mean active %.2f did not beat first-fit %.2f",
			dyn.Summary.MeanActivePMs, ff.Summary.MeanActivePMs)
	}
}

func TestRunSpareTradesEnergyForHeadroom(t *testing.T) {
	// The spare controller's whole point (Section IV) is holding idle
	// capacity for QoS: under relentless load it must keep at least as
	// many PMs active as the bare dynamic scheme, costing energy.
	var rs []workload.Request
	for i := 0; i < 120; i++ {
		run := 1200.0
		if i%3 == 0 {
			run = 20000
		}
		rs = append(rs, workload.Request{
			JobID: i, Submit: float64(i) * 40, CPUCores: 1, MemoryGB: 0.5,
			EstimatedRunTime: run, RunTime: run,
		})
	}
	bare, err := Run(Config{DC: smallFleet(), Placer: policy.NewDynamic(), Requests: rs})
	if err != nil {
		t.Fatal(err)
	}
	sc := spare.DefaultConfig()
	spared, err := Run(Config{DC: smallFleet(), Placer: policy.NewDynamic(), Requests: rs, Spare: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if spared.Summary.MeanActivePMs < bare.Summary.MeanActivePMs {
		t.Errorf("spare controller kept fewer PMs active (%.2f) than bare dynamic (%.2f)",
			spared.Summary.MeanActivePMs, bare.Summary.MeanActivePMs)
	}
}
