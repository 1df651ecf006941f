package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// Equivalence battery for MatrixOptions.Workers: the candidate index's
// kernel the knob parallelizes — a shape's first-seen fleet pass (the
// feed-driven sync and the dense Matrix are serial) — must leave a
// bit-identical index at any worker count, so the move streams, arrival
// decisions and shortlists read off it match too. Workers 2 and 7 exercise
// even and odd span splits (7 leaves a ragged tail span); the serial
// reference is an explicit Workers: 1.

// workerCounts are the parallel settings every equivalence test compares
// against the Workers: 1 reference.
var workerCounts = []int{2, 7}

// indexOf syncs ctx's candidate index at the given worker count and tracks
// the shape of every VM of vms.
func indexOf(ctx *Context, vms []*cluster.VM, workers int) *candIndex {
	x := ctx.candidatesWith(workers)
	for _, vm := range vms {
		x.shape(ctx.shapeID(vm.Demand))
	}
	return x
}

// diffIndex compares two candidate indexes over twin fleets shape by shape:
// tracking order, groups (key, shared values, members), the non-empty count
// and the per-PM groupOf inverse must all be identical. A key's class is
// compared by name: the parallel shape pass interns every class up front, so
// the class ids may be numbered differently.
func diffIndex(a, b *candIndex) error {
	className := func(x *candIndex, ci int32) string { return x.ctx.classTab[ci].class.Name }
	if len(a.shapeList) != len(b.shapeList) {
		return fmt.Errorf("%d shapes tracked vs %d", len(a.shapeList), len(b.shapeList))
	}
	for si, sa := range a.shapeList {
		sb := b.shapeList[si]
		if sa.id != sb.id || len(sa.groups) != len(sb.groups) || sa.nonEmpty != sb.nonEmpty {
			return fmt.Errorf("shape %d: id %d, %d groups, %d non-empty vs id %d, %d, %d",
				si, sa.id, len(sa.groups), sa.nonEmpty, sb.id, len(sb.groups), sb.nonEmpty)
		}
		for gi := range sa.groups {
			ga, gb := &sa.groups[gi], &sb.groups[gi]
			ka, kb := ga.key, gb.key
			if className(a, ka.ci) != className(b, kb.ci) || ka.level != kb.level || ka.rel != kb.rel || ga.rel != gb.rel || ga.effVal != gb.effVal || !slices.Equal(ga.members, gb.members) {
				return fmt.Errorf("shape %d group %d: %+v %v vs %+v %v", si, gi, ka, ga.members, kb, gb.members)
			}
		}
		if !slices.Equal(sa.groupOf, sb.groupOf) {
			return fmt.Errorf("shape %d: groupOf differs", si)
		}
	}
	return nil
}

// TestKernelWorkersSparseEquivalence: the candidate index synced and its
// shapes tracked at every worker count must equal the serial one — groups,
// members, groupOf — and so must each column's shortlist, on a fresh fleet
// and after a randomized sequence of moves, each applied to both fleets and
// picked up by the next sync.
func TestKernelWorkersSparseEquivalence(t *testing.T) {
	for _, w := range workerCounts {
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) {
			ctxS, vmsS := tableIIState(t, 100, 200, 31)
			ctxP, vmsP := tableIIState(t, 100, 200, 31)
			check := func(stage string) {
				t.Helper()
				xs, xp := indexOf(ctxS, vmsS, 1), indexOf(ctxP, vmsP, w)
				if err := diffIndex(xs, xp); err != nil {
					t.Fatalf("%s with %d workers: %v", stage, w, err)
				}
				for c := 0; c < len(vmsS); c += 13 {
					vs, vp := vmsS[c], vmsP[c]
					a := xs.shortlist(xs.shape(ctxS.shapeID(vs.Demand)), int32(vs.Host), ctxS.appendVirs(nil, vs), 8)
					b := xp.shortlist(xp.shape(ctxP.shapeID(vp.Demand)), int32(vp.Host), ctxP.appendVirs(nil, vp), 8)
					if len(a) != len(b) {
						t.Fatalf("%s: VM %d shortlist lengths %d vs %d", stage, vs.ID, len(a), len(b))
					}
					for i := range a {
						if a[i].PM.ID != b[i].PM.ID || a[i].Probability != b[i].Probability {
							t.Fatalf("%s: VM %d shortlist[%d]: (PM %d, %g) vs (PM %d, %g)",
								stage, vs.ID, i, a[i].PM.ID, a[i].Probability, b[i].PM.ID, b[i].Probability)
						}
					}
				}
			}
			check("fresh fleet")
			serial, err := NewMatrix(ctxS, DefaultFactors(), vmsS)
			if err != nil {
				t.Fatal(err)
			}
			defer serial.Release()
			par, err := NewMatrix(ctxP, DefaultFactors(), vmsP)
			if err != nil {
				t.Fatal(err)
			}
			defer par.Release()
			rng := stats.NewRand(int64(200 + w))
			applied := 0
			for step := 0; step < 25; step++ {
				c := rng.Intn(serial.Cols())
				var rows []int
				for r := 0; r < serial.Rows(); r++ {
					if r != serial.curRow[c] && serial.p[r][c] > 0 {
						rows = append(rows, r)
					}
				}
				if len(rows) == 0 {
					continue
				}
				r := rows[rng.Intn(len(rows))]
				if err := serial.Apply(r, c); err != nil {
					t.Fatal(err)
				}
				if err := par.Apply(r, c); err != nil {
					t.Fatal(err)
				}
				applied++
				check(fmt.Sprintf("after move %d", applied))
			}
			if applied < 8 {
				t.Fatalf("only %d random moves applied; property barely exercised", applied)
			}
			if err := ctxP.cand.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelWorkersConsolidateEquivalence runs full Algorithm 1 passes —
// the lazy rounds over the candidate index — at every worker count and
// requires the move streams (VM, endpoints, bit-identical gains, rounds) to
// match two references on twin fleets: the serial dense Matrix, built by
// constructor, and the lazy rounds at Workers: 1.
func TestKernelWorkersConsolidateEquivalence(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	for _, engine := range []string{"dense", "sparse"} {
		anyMoves := false
		for _, seed := range []int64{3, 7, 11, 19, 23} {
			ctxRef, _ := spreadState(t, 100, 260, seed)
			var ref []Move
			if engine == "dense" {
				ref = denseConsolidate(t, ctxRef, DefaultFactors(), params, MatrixOptions{})
			} else {
				var err error
				ref, err = ConsolidateWith(ctxRef, DefaultFactors(), params, MatrixOptions{CandidateK: 16, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
			}
			anyMoves = anyMoves || len(ref) > 0
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/seed%d/workers%d", engine, seed, w), func(t *testing.T) {
					ctx, _ := spreadState(t, 100, 260, seed)
					moves, err := ConsolidateWith(ctx, DefaultFactors(), params, MatrixOptions{CandidateK: 16, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					assertMovesEqual(t, ref, moves)
				})
			}
		}
		if !anyMoves {
			t.Fatalf("%s: no seed produced moves; the states are too easy to prove anything", engine)
		}
	}
}

// TestKernelWorkersArrivalEquivalence pins the sparse arrival path (which
// syncs the candidate index under the workers setting) to the serial
// decision for a spread of arrival demands.
func TestKernelWorkersArrivalEquivalence(t *testing.T) {
	ctx, _ := tableIIState(t, 100, 200, 43)
	demands := []vector.V{vector.New(1, 0.5), vector.New(2, 1), vector.New(1, 2)}
	for _, w := range workerCounts {
		for di, d := range demands {
			arrival := cluster.NewVM(cluster.VMID(1<<20), d, 5400, 5400, ctx.Now)
			want := BestPlacementWith(ctx, DefaultFactors(), arrival, MatrixOptions{CandidateK: 16, Workers: 1})
			got := BestPlacementWith(ctx, DefaultFactors(), arrival, MatrixOptions{CandidateK: 16, Workers: w})
			switch {
			case (want == nil) != (got == nil):
				t.Fatalf("demand %d workers %d: nil mismatch (%v vs %v)", di, w, got, want)
			case want != nil && want.ID != got.ID:
				t.Fatalf("demand %d workers %d: placed on PM %d, serial picked %d", di, w, got.ID, want.ID)
			}
		}
	}
}

// TestKernelWorkersSerialAllocBudget pins Workers: 1 to the hot paths'
// existing allocation budgets: forcing the serial path must not cost a
// single extra allocation over the default configuration the main alloc
// tests measure.
func TestKernelWorkersSerialAllocBudget(t *testing.T) {
	ctx, _ := tableIIState(t, 200, 400, 7)
	factors := DefaultFactors()
	params := DefaultParams()
	opts := MatrixOptions{Workers: 1}
	arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)

	for i := 0; i < 3; i++ {
		if BestPlacementWith(ctx, factors, arrival, opts) == nil {
			t.Fatal("no placement found")
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		BestPlacementWith(ctx, factors, arrival, opts)
	})
	if avg > arrivalAllocCeiling {
		t.Fatalf("BestPlacementWith(Workers: 1) allocates %.2f allocs/op on a warm context, budget %d",
			avg, arrivalAllocCeiling)
	}

	if _, err := ConsolidateWith(ctx, factors, params, opts); err != nil {
		t.Fatal(err)
	}
	nVMs := len(MigratableVMs(ctx.DC))
	if nVMs == 0 {
		t.Fatal("bench state has no running VMs")
	}
	avg = testing.AllocsPerRun(50, func() {
		if _, err := ConsolidateWith(ctx, factors, params, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perVM := avg / float64(nVMs); perVM > consolidateAllocsPerVM {
		t.Fatalf("ConsolidateWith(Workers: 1) allocates %.1f allocs/op (%.3f per VM column, budget %.2f)",
			avg, perVM, consolidateAllocsPerVM)
	}
}

// BenchmarkKernelParallelBuild measures the candidate index's cold build —
// every column shape's first-seen fleet pass — across worker counts. Each
// iteration's fresh index subscribes a feed no later bump pays for, since
// the loop writes nothing. Parallel indexes are
// asserted identical to the serial one before timing — a benchmark that
// silently raced would be worse than no benchmark.
func BenchmarkKernelParallelBuild(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sparse/workers%d", w), func(b *testing.B) {
			ctx, vms := tableIIState(b, 1000, 2000, 7)
			if w > 1 {
				ref, _ := tableIIState(b, 1000, 2000, 7)
				if err := diffIndex(indexOf(ref, vms, 1), indexOf(ctx, vms, w)); err != nil {
					b.Fatalf("parallel sync diverges: %v", err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.cand = nil
				indexOf(ctx, vms, w)
			}
		})
	}
}

// BenchmarkKernelParallelRound measures a full consolidation pass across
// worker counts (build + Algorithm 1 rounds), the in-run unit
// sim.Config.KernelWorkers actually scales.
func BenchmarkKernelParallelRound(b *testing.B) {
	params := DefaultParams()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			ctx, _ := tableIIState(b, 1000, 2000, 7)
			opts := MatrixOptions{Workers: w}
			// Settle the state: execute any profitable moves once so the
			// timed passes are steady-state evaluation.
			if _, err := ConsolidateWith(ctx, DefaultFactors(), params, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ConsolidateWith(ctx, DefaultFactors(), params, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
