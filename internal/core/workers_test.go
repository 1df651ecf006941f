package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// Equivalence battery for MatrixOptions.Workers: every candidate-index
// kernel the knob parallelizes (the dense Matrix is serial) must produce
// bit-identical results at any worker count —
// fresh builds, incremental trackers after randomized Apply sequences,
// consolidation move streams, and candidate shortlists. Workers 2 and 7
// exercise even and odd span splits (7 leaves a ragged tail span); the
// serial reference is an explicit Workers: 1.

// workerCounts are the parallel settings every equivalence test compares
// against the Workers: 1 reference.
var workerCounts = []int{2, 7}

// TestKernelWorkersSparseEquivalence: candidate-index sync, initial column
// sync, Best argmax, and shortlists must match the serial engine bit for
// bit at every worker count, before and after a randomized Apply sequence.
func TestKernelWorkersSparseEquivalence(t *testing.T) {
	for _, w := range workerCounts {
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) {
			ctxS, vmsS := tableIIState(t, 100, 200, 31)
			ctxP, vmsP := tableIIState(t, 100, 200, 31)
			serial, err := NewSparseMatrix(ctxS, DefaultFactors(), vmsS, MatrixOptions{CandidateK: 16, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewSparseMatrix(ctxP, DefaultFactors(), vmsP, MatrixOptions{CandidateK: 16, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			checkShortlists := func(stage string) {
				t.Helper()
				for c := 0; c < serial.Cols(); c += 13 {
					a, b := serial.ColumnShortlist(c, 8), par.ColumnShortlist(c, 8)
					if len(a) != len(b) {
						t.Fatalf("%s: column %d shortlist lengths %d vs %d", stage, c, len(a), len(b))
					}
					for i := range a {
						if a[i].PM.ID != b[i].PM.ID || a[i].Probability != b[i].Probability {
							t.Fatalf("%s: column %d shortlist[%d]: (PM %d, %g) vs (PM %d, %g)",
								stage, c, i, a[i].PM.ID, a[i].Probability, b[i].PM.ID, b[i].Probability)
						}
					}
				}
			}
			if err := serial.DiffSparse(par); err != nil {
				t.Fatalf("fresh build with %d workers diverges: %v", w, err)
			}
			checkShortlists("fresh build")
			rng := stats.NewRand(int64(200 + w))
			applied := 0
			for step := 0; step < 25; step++ {
				// Random feasible move enumerated off a dense build over
				// the serial fixture, so move selection cannot depend on
				// the code under test.
				oracle, err := NewMatrix(ctxS, DefaultFactors(), vmsS)
				if err != nil {
					t.Fatal(err)
				}
				c := rng.Intn(oracle.Cols())
				var rows []int
				for r := 0; r < oracle.Rows(); r++ {
					if r != oracle.curRow[c] && oracle.p[r][c] > 0 {
						rows = append(rows, r)
					}
				}
				oracle.Release()
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
				if err := serial.DiffSparse(par); err != nil {
					t.Fatalf("after move %d: %v", applied, err)
				}
			}
			if applied < 8 {
				t.Fatalf("only %d random moves applied; property barely exercised", applied)
			}
			checkShortlists("after applies")
			if err := par.SelfCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelWorkersConsolidateEquivalence runs full Algorithm 1 passes on
// the candidate-set engine at every worker count and requires the move
// streams (VM, endpoints, bit-identical gains, rounds) to match two
// references on twin fleets: the serial dense Matrix, built by constructor,
// and the candidate-set engine at Workers: 1.
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

// BenchmarkKernelParallelBuild measures the candidate-set engine's build
// across worker counts. Parallel results are asserted identical to the
// serial build before timing — a benchmark that silently raced would be
// worse than no benchmark.
func BenchmarkKernelParallelBuild(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sparse/workers%d", w), func(b *testing.B) {
			ctx, vms := tableIIState(b, 1000, 2000, 7)
			opts := MatrixOptions{CandidateK: 64, Workers: w}
			if w > 1 {
				ref, err := NewSparseMatrix(ctx, DefaultFactors(), vms, MatrixOptions{CandidateK: 64, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				sm, err := NewSparseMatrix(ctx, DefaultFactors(), vms, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := ref.DiffSparse(sm); err != nil {
					b.Fatalf("parallel build diverges: %v", err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewSparseMatrix(ctx, DefaultFactors(), vms, opts); err != nil {
					b.Fatal(err)
				}
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
