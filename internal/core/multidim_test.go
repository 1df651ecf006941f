package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// The paper formulates everything for K resource types; the evaluation
// uses K = 2 (CPU, memory). These tests drive the full placement and
// consolidation pipeline with K = 3 (CPU, memory, disk) to pin the
// machinery's dimensional generality.

func threeDimDC() *cluster.Datacenter {
	node := &cluster.PMClass{
		Name:          "3d",
		Capacity:      vector.New(8, 8, 500), // cores, GB, GB-disk
		CreationTime:  30,
		MigrationTime: 40,
		OnOffOverhead: 50,
		ActivePower:   400,
		IdlePower:     240,
		Reliability:   0.99,
	}
	dc := cluster.MustNew(cluster.Config{
		RMin:   vector.New(1, 0.25, 10),
		Groups: []cluster.Group{{Class: node, Count: 4}},
	})
	for _, p := range dc.PMs() {
		p.SetState(cluster.PMOn)
	}
	return dc
}

func TestThreeDimensionalPlacement(t *testing.T) {
	dc := threeDimDC()
	ctx := &Context{DC: dc, Now: 0}
	factors := DefaultFactors()

	// A disk-heavy VM must respect the third dimension.
	disky := cluster.NewVM(1, vector.New(1, 0.5, 450), 10000, 10000, 0)
	pm := BestPlacement(ctx, factors, disky)
	if pm == nil {
		t.Fatal("3-dim VM not placed")
	}
	if err := pm.Host(disky); err != nil {
		t.Fatal(err)
	}
	disky.State = cluster.VMRunning

	// A second disk-heavy VM cannot share that PM (disk exhausted).
	disky2 := cluster.NewVM(2, vector.New(1, 0.5, 100), 10000, 10000, 0)
	pm2 := BestPlacement(ctx, factors, disky2)
	if pm2 == nil {
		t.Fatal("second VM not placed")
	}
	if pm2.ID == pm.ID {
		t.Errorf("disk constraint ignored: both VMs on PM%d", pm.ID)
	}
}

func TestThreeDimensionalConsolidation(t *testing.T) {
	dc := threeDimDC()
	ctx := &Context{DC: dc, Now: 0}

	// Spread three small VMs across three PMs; all fit on one.
	for i := 0; i < 3; i++ {
		vm := cluster.NewVM(cluster.VMID(i+1), vector.New(2, 1, 50), 100000, 100000, 0)
		if err := dc.PM(cluster.PMID(i)).Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
	}
	before := dc.NonIdleCount()
	moves, err := Consolidate(ctx, DefaultFactors(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no 3-dim consolidation")
	}
	if after := dc.NonIdleCount(); after >= before {
		t.Errorf("non-idle %d -> %d, want reduction", before, after)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestThreeDimensionalEfficiencyLevels(t *testing.T) {
	dc := threeDimDC()
	ctx := &Context{DC: dc, Now: 0}
	pm := dc.PM(0)
	rmin := dc.RMinShared()

	// W_j = min(8/1, 8/0.25, 500/10) = 8; hosting w minimal VMs lands in
	// level w under the K = 3 partition (w^3 scaling).
	for w := 1; w <= 4; w++ {
		vm := cluster.NewVM(cluster.VMID(100+w), rmin, 10000, 10000, 0)
		if err := pm.Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
		if got := levelOf(ctx.classInfoFor(pm), pm.Utilization()); got != w {
			t.Errorf("hosting %d minimal VMs -> level %d", w, got)
		}
	}
	// The efficiency factor must track the same levels.
	probe := cluster.NewVM(999, rmin, 10000, 10000, 0)
	p := (EfficiencyFactor{}).Probability(ctx, probe, pm, false)
	want := 5.0 / 8.0 // prospective level 5 of W=8, eff = 1 (single class)
	if diff := p - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("3-dim p_eff = %g, want %g", p, want)
	}
}
