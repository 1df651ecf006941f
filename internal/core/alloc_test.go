package core

import (
	"runtime"
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

// allocEngines are the two paths every budget below holds for: the dense
// Matrix and the candidate index's lazy rounds, which get no allowance the
// dense side does not. The arrival argmax reaches each side the way a run
// does, through the factor list; the dense pass builds its matrix by
// constructor name.
var allocEngines = []struct {
	name    string
	arrival []Factor
	pass    func(ctx *Context, params Params) error
}{
	{"dense", append(DefaultFactors(), offsetFactor{}), func(ctx *Context, params Params) error {
		ctx.vmBuf = ctx.DC.AppendVMsInState(ctx.vmBuf[:0], cluster.VMRunning)
		m, err := NewMatrix(ctx, DefaultFactors(), ctx.vmBuf)
		if err != nil {
			return err
		}
		defer m.Release()
		_, err = m.Consolidate(params)
		return err
	}},
	{"sparse", DefaultFactors(), func(ctx *Context, params Params) error {
		_, err := ConsolidateWith(ctx, DefaultFactors(), params, MatrixOptions{CandidateK: 64})
		return err
	}},
}

func TestArrivalAllocBudget(t *testing.T) {
	for _, e := range allocEngines {
		t.Run(e.name, func(t *testing.T) {
			ctx, _ := tableIIState(t, 200, 400, 7)
			arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)

			// Warm the scratch and the class and shape tables.
			for i := 0; i < 3; i++ {
				if BestPlacement(ctx, e.arrival, arrival) == nil {
					t.Fatal("no placement found")
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				BestPlacement(ctx, e.arrival, arrival)
			})
			if indexed := ctx.cand != nil; indexed != (e.name == "sparse") {
				t.Fatalf("candidate index built = %t on the %s row", indexed, e.name)
			}
			if avg > arrivalAllocCeiling {
				t.Fatalf("BestPlacement allocates %.2f allocs/op on a warm context, budget %d",
					avg, arrivalAllocCeiling)
			}
		})
	}
}

// consolidateAllocsPerVM bounds the per-column allocation rate of a full
// warm consolidation pass (matrix build + Algorithm 1 rounds + release).
// A cold pass allocates the scratch once; after that the dominant costs
// must reuse it, so the per-VM rate stays well below one.
const consolidateAllocsPerVM = 0.5

// The roster rows pin what the column roster buys a pass through the
// production entry point, on both engines: over an unchanged fleet it
// allocates nothing and interns nothing — with the shape index taken away,
// any interning would miss and grow the table — and the pass that meets
// one arrival stays under the per-VM ceiling.
func TestConsolidateAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // for the MemStats delta below
	for _, e := range allocEngines {
		t.Run(e.name+"-roster", func(t *testing.T) {
			ctx, vms := tableIIState(t, 200, 400, 7)
			pass := func() {
				if _, err := ConsolidateWith(ctx, e.arrival, DefaultParams(), MatrixOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			pass() // cold build, scratch sized, profitable moves made
			pass() // the feed entries those moves left behind, consumed
			idx, shapes := ctx.shapeIdx, len(ctx.shapeTab)
			ctx.shapeIdx = nil
			if avg := testing.AllocsPerRun(50, pass); avg != 0 {
				t.Errorf("a pass over an unchanged fleet allocates %.1f times, want 0", avg)
			}
			if len(ctx.shapeTab) != shapes {
				t.Errorf("a pass over an unchanged fleet interned %d demands", len(ctx.shapeTab)-shapes)
			}
			ctx.shapeIdx = idx

			arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)
			if err := BestPlacement(ctx, e.arrival, arrival).Host(arrival); err != nil {
				t.Fatal(err)
			}
			arrival.State = cluster.VMRunning
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; float64(n) > consolidateAllocsPerVM*float64(len(vms)) {
				t.Errorf("the pass after one arrival allocates %d times over %d columns, budget %.2f per VM",
					n, len(vms), consolidateAllocsPerVM)
			}
			if placed := rosterPlaced(ctx.roster); placed != len(vms)+1 || len(ctx.shapeTab) != shapes {
				t.Errorf("roster holds %d VMs over %d shapes, want %d over %d",
					placed, len(ctx.shapeTab), len(vms)+1, shapes)
			}
		})
		t.Run(e.name, func(t *testing.T) {
			ctx, _ := tableIIState(t, 200, 400, 7)
			params := DefaultParams()

			// Warm pass: checks out (and sizes) the scratch, executes any
			// profitable moves so later passes are steady-state no-ops.
			if err := e.pass(ctx, params); err != nil {
				t.Fatal(err)
			}
			nVMs := len(MigratableVMs(ctx.DC))
			if nVMs == 0 {
				t.Fatal("bench state has no running VMs")
			}
			avg := testing.AllocsPerRun(50, func() {
				if err := e.pass(ctx, params); err != nil {
					t.Fatal(err)
				}
			})
			if perVM := avg / float64(nVMs); perVM > consolidateAllocsPerVM {
				t.Fatalf("a consolidation pass allocates %.1f allocs/op (%.3f per VM column, budget %.2f) on a warm context",
					avg, perVM, consolidateAllocsPerVM)
			}
		})
	}
}

// TestProvenEmptyPassAllocBudget: once a fleet has come to rest, a pass is
// the roster's feed check and the lazy rounds' first sweep and choice
// (bound.go) over state that is all in place — the buckets and host orders,
// the index, the shapes' top-two scratch, the survivor slice — while the clock,
// and with it every p_vir, moves on. It allocates nothing and checks out no
// matrix scratch.
func TestProvenEmptyPassAllocBudget(t *testing.T) {
	ctx, _ := tableIIState(t, 200, 400, 7)
	factors := DefaultFactors()
	pass := func() int {
		ctx.Now += 60
		moves, err := ConsolidateWith(ctx, factors, DefaultParams(), MatrixOptions{CandidateK: 64})
		if err != nil {
			t.Fatal(err)
		}
		return len(moves)
	}
	for pass() > 0 {
	}
	builds := ctx.pass
	if avg := testing.AllocsPerRun(50, func() { pass() }); avg != 0 {
		t.Errorf("a proven-empty pass allocates %.1f times, want 0", avg)
	}
	if extra := ctx.pass - builds - 51; extra != 0 { // one sweep per pass, AllocsPerRun warms up once
		t.Errorf("%d sweeps repeated over 51 proven-empty passes", extra)
	}
	if ctx.fscratch != nil {
		t.Error("a proven-empty pass checked out matrix scratch")
	}
}

// TestFramePoolInterleavedEngines runs dense matrices back to back on one
// Context — the way the auditor and SelfAudit mix them — and checks the
// checkout model: a build made while the pool is checked out allocates its
// own storage without disturbing the holder, the two agree, the pool is back
// on the Context after the first Release, and a pooled matrix under
// SelfAudit, whose every Apply builds a cold rebuild in flight, tracks a
// twin fleet's matrix move for move.
func TestFramePoolInterleavedEngines(t *testing.T) {
	ctx, vms := tableIIState(t, 60, 140, 5)
	factors := DefaultFactors()

	dense, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	pool := dense.scr
	if ctx.fscratch != nil {
		t.Fatal("a live engine left the pool attached")
	}
	// A second build with the pool checked out: own storage, same matrix.
	other, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	if other.scr == pool {
		t.Fatal("two live engines share one scratch")
	}
	if err := other.Diff(dense); err != nil {
		t.Fatalf("a build over a checked-out pool: %v", err)
	}
	dense.Release()
	other.Release()
	if ctx.fscratch != pool {
		t.Fatal("first Release did not re-attach the pool")
	}

	// Pooled and twin matrices under SelfAudit, each Apply audited by a
	// cold rebuild in flight; the twin mirrors the pooled matrix's moves.
	twinCtx, twinVMs := tableIIState(t, 60, 140, 5)
	twinCtx.SelfAudit, ctx.SelfAudit = true, true
	twin, err := NewMatrix(twinCtx, factors, twinVMs)
	if err != nil {
		t.Fatal(err)
	}
	dense, err = NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	if dense.scr != pool {
		t.Fatal("dense build did not reuse the pool")
	}
	for i := 0; i < 8; i++ {
		r, c, _, ok := dense.Best()
		if !ok {
			t.Fatalf("no move left after %d", i)
		}
		if err := dense.Apply(r, c); err != nil {
			t.Fatal(err)
		}
		if err := twin.Apply(r, c); err != nil {
			t.Fatal(err)
		}
		if err := twin.Diff(dense); err != nil {
			t.Fatalf("after move %d: %v", i+1, err)
		}
	}
	fresh, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.Diff(fresh); err != nil {
		t.Fatalf("pooled dense engine vs cold rebuild: %v", err)
	}
	fresh.Release()
	dense.Release()
	twin.Release()
	// Which scratch survives is the first Release's (here a SelfAudit
	// rebuild's); what matters is that each Context holds one again.
	if ctx.fscratch == nil || twinCtx.fscratch == nil {
		t.Fatal("no pool re-attached after the last Release")
	}
}
