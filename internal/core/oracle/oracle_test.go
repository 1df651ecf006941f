package oracle

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vector"
)

// fixture builds a small heterogeneous datacenter with real factors and a
// deliberately poor initial packing, so Algorithm 1 has migrations to find.
func fixture(t *testing.T) (*core.Context, []core.Factor, []*cluster.VM) {
	t.Helper()
	fast := cluster.FastClass
	slow := cluster.SlowClass
	dc := cluster.MustNew(cluster.Config{
		RMin: cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{
			{Class: &fast, Count: 2},
			{Class: &slow, Count: 3},
		},
	})
	for _, pm := range dc.PMs() {
		pm.SetState(cluster.PMOn)
	}
	var vms []*cluster.VM
	spread := []cluster.PMID{0, 1, 2, 3, 4, 0, 1, 2}
	for i, host := range spread {
		vm := cluster.NewVM(cluster.VMID(i+1), vector.New(1, 0.5), 5000, 5000, 0)
		if err := dc.PM(host).Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
		vms = append(vms, vm)
	}
	return core.NewContext(dc).At(100), core.DefaultFactors(), vms
}

func TestNewMatrixValidation(t *testing.T) {
	ctx, factors, vms := fixture(t)
	if _, err := NewMatrix(nil, factors, vms); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := NewMatrix(ctx, nil, vms); err == nil {
		t.Error("empty factor list accepted")
	}
	ctx2, factors2, vms2 := fixture(t)
	ctx2.DC.PM(0).SetState(cluster.PMOff) // its VMs are now on an inactive PM
	if _, err := NewMatrix(ctx2, factors2, vms2); err == nil {
		t.Error("VM on inactive PM accepted")
	}
}

func TestMatrixAxesSortedByID(t *testing.T) {
	ctx, factors, vms := fixture(t)
	// Shuffle the VM argument order; the matrix must sort it.
	shuffled := []*cluster.VM{vms[3], vms[0], vms[7], vms[1], vms[5], vms[2], vms[6], vms[4]}
	m, err := NewMatrix(ctx, factors, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < m.Cols(); c++ {
		if m.VM(c-1).ID >= m.VM(c).ID {
			t.Fatalf("columns not sorted by VM ID at %d", c)
		}
	}
	for r := 1; r < m.Rows(); r++ {
		if m.PM(r-1).ID >= m.PM(r).ID {
			t.Fatalf("rows not sorted by PM ID at %d", r)
		}
	}
}

func TestBestReportsMaxNormalizedGain(t *testing.T) {
	ctx, factors, vms := fixture(t)
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	r, c, gain, ok := m.Best()
	if !ok {
		t.Fatal("no best move in a spread-out packing")
	}
	// Recompute the max by brute force over P and CurProb.
	wantGain, wantR, wantC := 0.0, -1, -1
	for col := 0; col < m.Cols(); col++ {
		cur := m.CurProb(col)
		for row := 0; row < m.Rows(); row++ {
			if row == m.CurRow(col) {
				continue
			}
			var g float64
			switch {
			case cur > 0:
				g = m.P(row, col) / cur
			case m.P(row, col) > 0:
				g = math.Inf(1)
			}
			if g > wantGain {
				wantGain, wantR, wantC = g, row, col
			}
		}
	}
	if r != wantR || c != wantC || gain != wantGain {
		t.Fatalf("Best = (%d, %d, %g), brute force says (%d, %d, %g)", r, c, gain, wantR, wantC, wantGain)
	}
}

func TestApplyMovesVMAndRefreshes(t *testing.T) {
	ctx, factors, vms := fixture(t)
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	r, c, _, ok := m.Best()
	if !ok {
		t.Fatal("no move")
	}
	vm := m.VM(c)
	target := m.PM(r)
	if err := m.Apply(r, c); err != nil {
		t.Fatal(err)
	}
	if vm.Host != target.ID {
		t.Fatalf("VM %d on PM %d after Apply, want %d", vm.ID, vm.Host, target.ID)
	}
	if m.CurRow(c) != r {
		t.Fatalf("curRow %d after Apply, want %d", m.CurRow(c), r)
	}
	// The moved column's normalizer must match its new placement cell.
	if m.CurProb(c) != m.P(r, c) {
		t.Fatalf("curProb %g != p[%d][%d] %g", m.CurProb(c), r, c, m.P(r, c))
	}
	if err := ctx.DC.CheckInvariants(); err != nil {
		t.Fatalf("datacenter corrupted by Apply: %v", err)
	}
}

func TestBestPlacementMatchesCore(t *testing.T) {
	ctx, factors, _ := fixture(t)
	for i := 0; i < 5; i++ {
		vm := cluster.NewVM(cluster.VMID(100+i), vector.New(1, float64(i)*0.25+0.25), 3000, 3000, 100)
		got := BestPlacement(ctx, factors, vm)
		want := core.BestPlacement(ctx, factors, vm)
		switch {
		case got == nil && want == nil:
		case got == nil || want == nil:
			t.Fatalf("vm %d: oracle %v vs core %v", vm.ID, got, want)
		case got.ID != want.ID:
			t.Fatalf("vm %d: oracle picks PM %d, core picks PM %d", vm.ID, got.ID, want.ID)
		}
	}
}
