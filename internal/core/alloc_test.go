package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// Steady-state allocation budgets for the placement hot paths. The index,
// the roster and the Context's scratch are kept across events so a long
// simulation's per-event cost is the arithmetic, not the garbage: these
// tests pin that property with asserted ceilings, the same way internal/sim
// pins the event loop's.

// arrivalAllocCeiling bounds allocs per BestPlacement call on a warm
// Context. The argmax itself is allocation-free; the ceiling leaves room
// for incidental runtime allocations (map growth straggling, etc.) without
// letting a per-PM or per-term regression through.
const arrivalAllocCeiling = 2

// allocEngines are the two forms every budget below holds for on the
// candidate index and its lazy rounds: the paper's four, and the four with
// a price term appended, which gets no allowance the paper's four do not.
var allocEngines = []struct {
	name    string
	factors []Factor
}{
	{"price", append(DefaultFactors(), offsetPrices(200))},
	{"sparse", DefaultFactors()},
}

func TestArrivalAllocBudget(t *testing.T) {
	for _, e := range allocEngines {
		t.Run(e.name, func(t *testing.T) {
			ctx, _ := tableIIState(t, 200, 400, 7)
			arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)

			// Warm the scratch and the class and shape tables.
			for i := 0; i < 3; i++ {
				if BestPlacement(ctx, e.factors, arrival) == nil {
					t.Fatal("no placement found")
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				BestPlacement(ctx, e.factors, arrival)
			})
			if ctx.cand == nil {
				t.Fatalf("no candidate index built on the %s row", e.name)
			}
			if avg > arrivalAllocCeiling {
				t.Fatalf("BestPlacement allocates %.2f allocs/op on a warm context, budget %d",
					avg, arrivalAllocCeiling)
			}
		})
	}
}

// consolidateAllocsPerVM bounds the per-column allocation rate of a full
// warm consolidation pass (roster sync, sweeps, Algorithm 1 rounds). A
// cold pass allocates the roster and the index once; after that the
// dominant costs must reuse them, so the per-VM rate stays well below one.
const consolidateAllocsPerVM = 0.5

// The roster rows pin what the column roster buys a pass through the
// production entry point, on both forms: over an unchanged fleet it
// allocates nothing and interns nothing — with the shape index taken away,
// any interning would miss and grow the table — and the pass that meets
// one arrival stays under the per-VM ceiling.
func TestConsolidateAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // for the MemStats delta below
	for _, e := range allocEngines {
		t.Run(e.name+"-roster", func(t *testing.T) {
			ctx, vms := tableIIState(t, 200, 400, 7)
			pass := func() {
				if _, err := ConsolidateWith(ctx, e.factors, DefaultParams(), MatrixOptions{}); err != nil {
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
			if err := BestPlacement(ctx, e.factors, arrival).Host(arrival); err != nil {
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

			pass := func() error {
				_, err := ConsolidateWith(ctx, e.factors, params, MatrixOptions{CandidateK: 64})
				return err
			}
			// Warm pass: builds (and sizes) the roster and the index,
			// executes any profitable moves so later passes are
			// steady-state no-ops.
			if err := pass(); err != nil {
				t.Fatal(err)
			}
			nVMs := len(MigratableVMs(ctx.DC))
			if nVMs == 0 {
				t.Fatal("bench state has no running VMs")
			}
			avg := testing.AllocsPerRun(50, func() {
				if err := pass(); err != nil {
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
// and with it every p_vir, moves on. It allocates nothing.
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
}

// TestFramePoolInterleavedEngines builds cold references back to back on
// one Context — the way SelfAudit builds one a round between moves — and
// holds each to a second build on the same Context and to a twin fleet's,
// built on its own, after the same moves. A build keeps nothing on the
// Context it runs on (no candidate index, no roster, no swept columns), so
// builds interleaved with moves cannot see one another.
func TestFramePoolInterleavedEngines(t *testing.T) {
	ctx, _ := tableIIState(t, 60, 140, 5)
	twinCtx, _ := tableIIState(t, 60, 140, 5)
	factors := DefaultFactors()
	for i := 0; i < 8; i++ {
		ref, err := newReference(ctx, factors)
		if err != nil {
			t.Fatal(err)
		}
		again, err := newReference(ctx, factors)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := newReference(twinCtx, factors)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ref, again) || len(twin) != len(ref) {
			t.Fatalf("after move %d: two builds on one Context differ, or the twin has %d columns to %d", i, len(twin), len(ref))
		}
		for c, col := range twin {
			if col.vm.ID != ref[c].vm.ID || col.cur != ref[c].cur || col.best != ref[c].best || col.p != ref[c].p || col.gain != ref[c].gain {
				t.Fatalf("after move %d, VM %d: twin column %+v, %+v", i, col.vm.ID, col, ref[c])
			}
		}
		c := ref.Best()
		if c < 0 {
			t.Fatalf("no move left after %d", i)
		}
		for _, side := range []struct {
			ctx *Context
			col refColumn
		}{{ctx, ref[c]}, {twinCtx, twin[c]}} {
			dc := side.ctx.DC
			if err := Migrate(side.col.vm, dc.PM(side.col.vm.Host), dc.PM(side.col.best)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ctx.cand != nil || ctx.roster != nil || ctx.swept != nil {
		t.Fatal("a cold build left lazy-round state on its Context")
	}
}
