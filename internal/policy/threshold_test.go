package policy

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vector"
)

func thresholdDC(t *testing.T, n int) (*cluster.Datacenter, *core.Context) {
	t.Helper()
	fast := cluster.FastClass
	d := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: n}},
	})
	for _, p := range d.PMs() {
		p.SetState(cluster.PMOn)
	}
	return d, &core.Context{DC: d, Now: 0}
}

func hostRunning(t *testing.T, pm *cluster.PM, id cluster.VMID, cpu, mem float64) *cluster.VM {
	t.Helper()
	vm := cluster.NewVM(id, vector.New(cpu, mem), 100000, 100000, 0)
	if err := pm.Host(vm); err != nil {
		t.Fatal(err)
	}
	vm.State = cluster.VMRunning
	return vm
}

func TestThresholdValidate(t *testing.T) {
	if err := NewThreshold().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []*Threshold{
		{Lo: 0, Hi: 0.9, MaxMoves: 5},
		{Lo: 0.9, Hi: 0.5, MaxMoves: 5},
		{Lo: 0.2, Hi: 1.5, MaxMoves: 5},
		{Lo: 0.2, Hi: 0.9, MaxMoves: 0},
	}
	for i, th := range bad {
		if th.Validate() == nil {
			t.Errorf("bad threshold %d accepted", i)
		}
	}
}

func TestThresholdPlaceRespectsHi(t *testing.T) {
	d, ctx := thresholdDC(t, 2)
	th := NewThreshold()               // Hi = 0.9 -> cap (8,8): 7.2 of either resource
	hostRunning(t, d.PM(0), 100, 7, 1) // CPU 7/8 = 0.875; adding 1 core -> 1.0 > Hi
	vm := cluster.NewVM(1, vector.New(1, 0.5), 1000, 1000, 0)
	pm := th.Place(ctx, vm)
	if pm == nil || pm.ID != 1 {
		t.Errorf("Place chose %v, want the empty PM1", pm)
	}
}

func TestThresholdPlaceFallsBackWhenAllAboveHi(t *testing.T) {
	d, ctx := thresholdDC(t, 1)
	th := NewThreshold()
	hostRunning(t, d.PM(0), 100, 7, 7)
	vm := cluster.NewVM(1, vector.New(1, 0.5), 1000, 1000, 0)
	// Post utilization 8/8 = 1 > Hi, but it is the only feasible host.
	if pm := th.Place(ctx, vm); pm == nil || pm.ID != 0 {
		t.Errorf("fallback failed: %v", pm)
	}
}

func TestThresholdPlaceBestFitUnderHi(t *testing.T) {
	d, ctx := thresholdDC(t, 3)
	th := NewThreshold()
	hostRunning(t, d.PM(1), 100, 4, 4) // 50%
	hostRunning(t, d.PM(2), 101, 2, 2) // 25%
	vm := cluster.NewVM(1, vector.New(1, 0.5), 1000, 1000, 0)
	if pm := th.Place(ctx, vm); pm == nil || pm.ID != 1 {
		t.Errorf("Place chose %v, want the most-loaded PM1", pm)
	}
}

func TestThresholdEvacuatesUnderloadedPM(t *testing.T) {
	d, ctx := thresholdDC(t, 3)
	th := NewThreshold()               // Lo = 0.25
	hostRunning(t, d.PM(0), 1, 1, 0.5) // 12.5% CPU -> underloaded
	hostRunning(t, d.PM(1), 2, 4, 2)   // 50%
	moves, err := th.Consolidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].VM != 1 || moves[0].To != 1 {
		t.Fatalf("moves = %+v, want VM1 -> PM1", moves)
	}
	if d.PM(0).VMCount() != 0 {
		t.Error("source not emptied")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestThresholdEvacuationIsAllOrNothing(t *testing.T) {
	d, ctx := thresholdDC(t, 2)
	th := &Threshold{Lo: 0.5, Hi: 0.9, MaxMoves: 10}
	// PM0 has two VMs of different sizes at 25% total (underloaded under
	// Lo=0.5); PM1 can absorb the smaller but not both without exceeding
	// Hi, and a target that scored the second VM as the first would take
	// both.
	hostRunning(t, d.PM(0), 1, 0.5, 0.5)
	hostRunning(t, d.PM(0), 2, 1.5, 1.5)
	hostRunning(t, d.PM(1), 3, 6, 6) // 75%; +0.5 -> 81.25% <= 0.9, +2 -> 100% > Hi
	moves, err := th.Consolidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Errorf("partial evacuation happened: %+v", moves)
	}
	if d.PM(0).VMCount() != 2 {
		t.Error("source PM disturbed despite failed plan")
	}
}

func TestThresholdRelievesOverload(t *testing.T) {
	d, ctx := thresholdDC(t, 2)
	th := &Threshold{Lo: 0.1, Hi: 0.6, MaxMoves: 10}
	// PM0 at 87.5% CPU with distinct VMs; PM1 empty.
	hostRunning(t, d.PM(0), 1, 4, 1)
	hostRunning(t, d.PM(0), 2, 2, 1)
	hostRunning(t, d.PM(0), 3, 1, 1)
	moves, err := th.Consolidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no relief moves")
	}
	u := d.PM(0).Used[0] / 8
	if u > 0.6 {
		t.Errorf("PM0 still overloaded at %.2f", u)
	}
	// Smallest VM should have moved first.
	if moves[0].VM != 3 {
		t.Errorf("first relief move = VM%d, want the smallest VM3", moves[0].VM)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestThresholdRespectsBudget(t *testing.T) {
	d, ctx := thresholdDC(t, 4)
	th := &Threshold{Lo: 0.5, Hi: 0.9, MaxMoves: 1}
	hostRunning(t, d.PM(0), 1, 1.5, 0.5)
	hostRunning(t, d.PM(1), 2, 1, 0.5)
	hostRunning(t, d.PM(2), 3, 4, 2)
	moves, err := th.Consolidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) > 1 {
		t.Errorf("budget exceeded: %d moves", len(moves))
	}
	// The budget's one move drains the least-loaded host, PM1.
	if len(moves) != 1 || moves[0].VM != 2 || moves[0].To != 2 {
		t.Errorf("moves = %+v, want VM2 -> PM2", moves)
	}
}

func TestThresholdConsolidateValidates(t *testing.T) {
	_, ctx := thresholdDC(t, 1)
	th := &Threshold{Lo: 0.9, Hi: 0.5, MaxMoves: 1}
	if _, err := th.Consolidate(ctx); err == nil {
		t.Error("invalid thresholds accepted")
	}
}

func TestThresholdByName(t *testing.T) {
	p, err := ByName("threshold", 1)
	if err != nil || p.Name() != "threshold" {
		t.Errorf("ByName = %v, %v", p, err)
	}
}

func TestBottleneck(t *testing.T) {
	if got := bottleneck(vector.New(4, 2), vector.New(8, 8)); got != 0.5 {
		t.Errorf("bottleneck = %g, want 0.5", got)
	}
	if got := bottleneck(vector.New(0, 6), vector.New(8, 8)); got != 0.75 {
		t.Errorf("bottleneck = %g, want 0.75", got)
	}
	if got := bottleneck(vector.New(1, 1), vector.New(8, 0)); got != 0.125 {
		t.Errorf("zero-cap dimension should be skipped: %g", got)
	}
}
