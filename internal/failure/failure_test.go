package failure

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("disabled config rejected: %v", err)
	}
	good := Config{MTBF: 1000, RepairTime: 60, ReliabilityDecay: 0.9, MinReliability: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []Config{
		{MTBF: -1},
		{MTBF: 10, RepairTime: -1, ReliabilityDecay: 0.9},
		{MTBF: 10, ReliabilityDecay: 0},
		{MTBF: 10, ReliabilityDecay: 1.5},
		{MTBF: 10, ReliabilityDecay: 0.9, MinReliability: 2},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if !(Config{MTBF: 5}).Enabled() {
		t.Error("MTBF config not enabled")
	}
}

func TestNewInjectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewInjector(Config{MTBF: 10, ReliabilityDecay: -1})
}

func TestSampleTimeToFailureMean(t *testing.T) {
	inj := NewInjector(Config{MTBF: 500, ReliabilityDecay: 0.9, Seed: 1})
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		x := inj.SampleTimeToFailure()
		if x < 0 {
			t.Fatal("negative time to failure")
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-500)/500 > 0.05 {
		t.Errorf("sample MTBF = %g, want ~500", mean)
	}
}

func TestFailDecaysReliability(t *testing.T) {
	inj := NewInjector(Config{MTBF: 100, ReliabilityDecay: 0.5, MinReliability: 0.2, Seed: 1})
	class := cluster.FastClass
	pm := cluster.NewPM(0, &class)
	if pm.Reliability() != class.Reliability {
		t.Fatalf("initial reliability = %g", pm.Reliability())
	}
	inj.Fail(pm)
	if pm.Failures != 1 || math.Abs(pm.Reliability()-0.495) > 1e-12 {
		t.Errorf("after 1 failure: count=%d rel=%g", pm.Failures, pm.Reliability())
	}
	inj.Fail(pm)
	inj.Fail(pm)
	if pm.Reliability() != 0.2 {
		t.Errorf("reliability = %g, want floored at 0.2", pm.Reliability())
	}
	if pm.Failures != 3 {
		t.Errorf("failures = %d", pm.Failures)
	}
}

func TestInjectorAccessors(t *testing.T) {
	inj := NewInjector(Config{MTBF: 100, RepairTime: 77, ReliabilityDecay: 0.9})
	if inj.RepairTime() != 77 {
		t.Error("accessors wrong")
	}
}
