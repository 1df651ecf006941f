package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// Steady-state allocation budgets for the placement hot paths. The scratch
// pools (scratch.go) exist so a long simulation's per-event cost is the
// arithmetic, not the garbage: these tests pin that property with asserted
// ceilings, the same way internal/sim pins the event loop's.

// arrivalAllocCeiling bounds allocs per BestPlacement call on a warm
// Context. The argmax itself is allocation-free; the ceiling leaves room
// for incidental runtime allocations (map growth straggling, etc.) without
// letting a per-PM or per-term regression through.
const arrivalAllocCeiling = 2

func TestArrivalAllocBudget(t *testing.T) {
	ctx, _ := tableIIState(t, 200, 400, 7)
	factors := DefaultFactors()
	arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)

	// Warm the scratch and the per-class cache.
	for i := 0; i < 3; i++ {
		if BestPlacement(ctx, factors, arrival) == nil {
			t.Fatal("no placement found")
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		BestPlacement(ctx, factors, arrival)
	})
	if avg > arrivalAllocCeiling {
		t.Fatalf("BestPlacement allocates %.2f allocs/op on a warm context, budget %d",
			avg, arrivalAllocCeiling)
	}
}

// consolidateAllocsPerVM bounds the per-column allocation rate of a full
// warm consolidation pass (matrix build + Algorithm 1 rounds + release).
// A cold pass allocates the scratch once; after that the dominant costs
// must reuse it, so the per-VM rate stays well below one.
const consolidateAllocsPerVM = 0.5

func TestConsolidateAllocBudget(t *testing.T) {
	ctx, _ := tableIIState(t, 200, 400, 7)
	factors := DefaultFactors()
	params := DefaultParams()

	// Warm pass: checks out (and sizes) the scratch, executes any
	// profitable moves so later passes are steady-state no-ops.
	if _, err := Consolidate(ctx, factors, params); err != nil {
		t.Fatal(err)
	}
	nVMs := len(ctx.vmBuf)
	if nVMs == 0 {
		t.Fatal("bench state has no running VMs")
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := Consolidate(ctx, factors, params); err != nil {
			t.Fatal(err)
		}
	})
	if perVM := avg / float64(nVMs); perVM > consolidateAllocsPerVM {
		t.Fatalf("Consolidate allocates %.1f allocs/op (%.3f per VM column, budget %.2f) on a warm context",
			avg, perVM, consolidateAllocsPerVM)
	}
}

// TestSlabRowFillAllocBudget pins the slab path's steady-state property:
// once the aligned working slabs have grown to the row width, refilling a
// row allocates nothing at all.
func TestSlabRowFillAllocBudget(t *testing.T) {
	ctx, vms := tableIIState(t, 200, 400, 7)
	m, err := NewMatrixWith(ctx, DefaultFactors(), vms, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.kern == nil || !m.kern.isDefault {
		t.Fatal("slab path not engaged")
	}
	m.fillRow(0) // warm the row scratch slabs
	r := 0
	avg := testing.AllocsPerRun(100, func() {
		m.fillRow(r % m.Rows())
		r++
	})
	if avg > 0 {
		t.Fatalf("slab row fill allocates %.2f allocs/op on warm scratch, budget 0", avg)
	}
}
