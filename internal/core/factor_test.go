package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// smallDC builds a 2-fast + 2-slow datacenter with all PMs on.
func smallDC() *cluster.Datacenter {
	fast := cluster.FastClass
	slow := cluster.SlowClass
	dc := cluster.MustNew(cluster.Config{
		RMin: cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{
			{Class: &fast, Count: 2},
			{Class: &slow, Count: 2},
		},
	})
	for _, p := range dc.PMs() {
		p.SetState(cluster.PMOn)
	}
	return dc
}

func mustHost(t *testing.T, pm *cluster.PM, vm *cluster.VM) {
	t.Helper()
	if err := pm.Host(vm); err != nil {
		t.Fatal(err)
	}
	vm.State = cluster.VMRunning
}

func TestResourceFactor(t *testing.T) {
	dc := smallDC()
	ctx := &Context{DC: dc, Now: 0}
	pm := dc.PM(0) // fast, cap (8,8)
	vm := cluster.NewVM(1, vector.New(6, 6), 1000, 1000, 0)

	if got := (ResourceFactor{}).Probability(ctx, vm, pm, false); got != 1 {
		t.Errorf("fitting VM p_res = %g, want 1", got)
	}
	filler := cluster.NewVM(2, vector.New(4, 4), 1000, 1000, 0)
	mustHost(t, pm, filler)
	if got := (ResourceFactor{}).Probability(ctx, vm, pm, false); got != 0 {
		t.Errorf("non-fitting VM p_res = %g, want 0", got)
	}
	// The current host always scores 1, even "over" capacity checks.
	if got := (ResourceFactor{}).Probability(ctx, filler, pm, true); got != 1 {
		t.Errorf("hosted p_res = %g, want 1", got)
	}
}

func TestVirtualizationFactor(t *testing.T) {
	dc := smallDC()
	pm := dc.PM(0) // fast: T_cre 30 + T_mig 40 = 70 s overhead
	f := VirtualizationFactor{}

	vm := cluster.NewVM(1, vector.New(1, 1), 700, 700, 0)
	ctx := &Context{DC: dc, Now: 0}
	// A new, unplaced VM pays only the creation overhead:
	// T_re = 700, overhead 30: ((700-30)/700)^2.
	wantNew := math.Pow(670.0/700, 2)
	if got := f.Probability(ctx, vm, pm, false); math.Abs(got-wantNew) > 1e-12 {
		t.Errorf("new-VM p_vir = %g, want %g", got, wantNew)
	}
	// Once hosted elsewhere, a migration pays T_cre + T_mig = 70
	// (Eq. 3): ((700-70)/700)^2 = 0.81.
	other := dc.PM(1)
	mustHost(t, other, vm)
	if got := f.Probability(ctx, vm, pm, false); math.Abs(got-0.81) > 1e-12 {
		t.Errorf("migration p_vir = %g, want 0.81", got)
	}
	if got := f.Probability(ctx, vm, pm, true); got != 1 {
		t.Errorf("hosted p_vir = %g, want 1", got)
	}

	// Remaining time exactly equals overhead: no chance to migrate.
	vm2 := cluster.NewVM(2, vector.New(1, 1), 70, 70, 0)
	mustHost(t, dc.PM(2), vm2)
	if got := f.Probability(ctx, vm2, pm, false); got != 0 {
		t.Errorf("boundary p_vir = %g, want 0", got)
	}

	// Remaining shrinks as the VM runs.
	vm.StartTime = 0
	late := &Context{DC: dc, Now: 560} // T_re = 140, ((140-70)/140)^2 = 0.25
	if got := f.Probability(late, vm, pm, false); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("late p_vir = %g, want 0.25", got)
	}
	// After the estimate expires, migration probability is 0.
	expired := &Context{DC: dc, Now: 10000}
	if got := f.Probability(expired, vm, pm, false); got != 0 {
		t.Errorf("expired p_vir = %g, want 0", got)
	}
}

func TestVirtualizationFactorQuadraticPenalty(t *testing.T) {
	// The quadratic form must penalize short-remaining VMs MORE than a
	// linear form would: p(small T_re) decays faster.
	dc := smallDC()
	pm := dc.PM(0)
	f := VirtualizationFactor{}
	ctx := &Context{DC: dc, Now: 0}
	long := cluster.NewVM(1, vector.New(1, 1), 7000, 7000, 0)
	short := cluster.NewVM(2, vector.New(1, 1), 140, 140, 0)
	mustHost(t, dc.PM(1), long) // hosted -> migration overhead applies
	mustHost(t, dc.PM(1), short)
	pl := f.Probability(ctx, long, pm, false)
	ps := f.Probability(ctx, short, pm, false)
	linLong, linShort := (7000.0-70)/7000, (140.0-70)/140
	if !(pl > ps) {
		t.Fatalf("long %g should beat short %g", pl, ps)
	}
	if !(ps/pl < linShort/linLong) {
		t.Errorf("quadratic penalty not steeper than linear: %g vs %g", ps/pl, linShort/linLong)
	}
}

func TestReliabilityFactor(t *testing.T) {
	dc := smallDC()
	pm := dc.PM(0)
	pm.SetReliability(0.7)
	got := (ReliabilityFactor{}).Probability(&Context{DC: dc}, nil, pm, false)
	if got != 0.7 {
		t.Errorf("p_rel = %g, want 0.7", got)
	}
}

func TestEfficiencyFactorLevels(t *testing.T) {
	dc := smallDC()
	ctx := &Context{DC: dc, Now: 0}
	f := EfficiencyFactor{}
	fast := dc.PM(0) // W_j = 8, eff = 1
	rmin := dc.RMinShared()

	vm := cluster.NewVM(1, rmin, 1000, 1000, 0)
	// Empty fast PM, prospective level after hosting one minimal VM = 1.
	if got := f.Probability(ctx, vm, fast, false); math.Abs(got-1.0/8) > 1e-12 {
		t.Errorf("empty-PM p_eff = %g, want 1/8", got)
	}

	// Fill with 5 minimal VMs: prospective level 6 -> 6/8.
	for i := cluster.VMID(10); i < 15; i++ {
		mustHost(t, fast, cluster.NewVM(i, rmin, 1000, 1000, 0))
	}
	if got := f.Probability(ctx, vm, fast, false); math.Abs(got-6.0/8) > 1e-12 {
		t.Errorf("busy-PM p_eff = %g, want 6/8", got)
	}

	// Current host: level from current utilization (5 VMs -> level 5).
	hosted := fast.VMs()[0]
	if got := f.Probability(ctx, hosted, fast, true); math.Abs(got-5.0/8) > 1e-12 {
		t.Errorf("hosted p_eff = %g, want 5/8", got)
	}
}

func TestEfficiencyFactorPrefersEfficientClass(t *testing.T) {
	dc := smallDC()
	ctx := &Context{DC: dc, Now: 0}
	f := EfficiencyFactor{}
	vm := cluster.NewVM(1, dc.RMinShared(), 1000, 1000, 0)
	fast := f.Probability(ctx, vm, dc.PM(0), false) // eff 1, level 1/8
	slow := f.Probability(ctx, vm, dc.PM(2), false) // eff 2/3, level 1/4
	// slow: (1/4)*(2/3) = 1/6 > fast 1/8: a *busier-fraction* slow node
	// can outrank an empty fast node — the level term dominates.
	if math.Abs(fast-1.0/8) > 1e-12 || math.Abs(slow-1.0/6) > 1e-12 {
		t.Errorf("fast/slow p_eff = %g/%g, want 0.125/0.1667", fast, slow)
	}
}

func TestJointShortCircuit(t *testing.T) {
	dc := smallDC()
	ctx := &Context{DC: dc, Now: 0}
	// A VM that does not fit anywhere scores 0 regardless of the other
	// factors.
	vm := cluster.NewVM(1, vector.New(100, 100), 1000, 1000, 0)
	if got := Joint(ctx, DefaultFactors(), vm, dc.PM(0), false); got != 0 {
		t.Errorf("Joint = %g, want 0", got)
	}
}

func TestJointProductOfFactors(t *testing.T) {
	dc := smallDC()
	ctx := &Context{DC: dc, Now: 0}
	pm := dc.PM(0)
	pm.SetReliability(0.9)
	vm := cluster.NewVM(1, dc.RMinShared(), 700, 700, 0)
	mustHost(t, dc.PM(1), vm) // hosted elsewhere -> full migration overhead
	want := 1.0 * 0.81 * 0.9 * (1.0 / 8)
	if got := Joint(ctx, DefaultFactors(), vm, pm, false); math.Abs(got-want) > 1e-12 {
		t.Errorf("Joint = %g, want %g", got, want)
	}
}

func TestFactorNames(t *testing.T) {
	want := []string{"res", "vir", "rel", "eff"}
	for i, f := range DefaultFactors() {
		if f.Name() != want[i] {
			t.Errorf("factor %d name = %q, want %q", i, f.Name(), want[i])
		}
	}
}
