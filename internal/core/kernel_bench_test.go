package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// Kernel micro-benchmarks at 100 / 1k / 10k PMs with ~2 VMs per PM: the
// cold dense Matrix's build (what every audited round pays), a
// consolidation pass (the lazy rounds, no engine built), and the arrival
// argmax — "kernel" the index's score-group argmax a run executes,
// "generic" Joint per PM with a full sort. These are layer-level looks;
// whole-run numbers come from `go run ./bench` (bench/README.md).
// For benchstat-friendly output:
//
//	go test ./internal/core -run '^$' -bench 'Kernel.*pms(100|1000)$' -count 10
//
// (the pms10000 variants are sized for scale tests, not quick runs).

var benchSizes = []int{100, 1000, 10000}

func BenchmarkKernelMatrixBuild(b *testing.B) {
	for _, pms := range benchSizes {
		b.Run(fmt.Sprintf("pms%d", pms), func(b *testing.B) {
			ctx, vms := tableIIState(b, pms, 2*pms, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewMatrix(ctx, DefaultFactors(), vms)
				if err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
			b.ReportMetric(float64(pms*len(vms)), "cells")
		})
	}
}

// BenchmarkKernelLazyPass measures a consolidation pass — the lazy rounds
// of bound.go, no engine built — on a seeded 100-PM state with
// the VMs dealt round-robin (spreadState): "moving" is the first pass over
// the fresh state (a fresh copy per iteration, built with the timer
// stopped), MIG_round moves; "empty" is a pass once the fleet has come to
// rest, the first round's sweep and nothing after it.
func BenchmarkKernelLazyPass(b *testing.B) {
	params, factors := DefaultParams(), DefaultFactors()
	pass := func(b *testing.B, ctx *Context) int {
		moves, err := ConsolidateWith(ctx, factors, params, MatrixOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return len(moves)
	}
	b.Run("moving/pms100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ctx, _ := spreadState(b, 100, 200, 7)
			b.StartTimer()
			if pass(b, ctx) == 0 {
				b.Fatal("the fresh state moves nothing")
			}
		}
	})
	b.Run("empty/pms100", func(b *testing.B) {
		ctx, vms := spreadState(b, 100, 200, 7)
		for pass(b, ctx) > 0 {
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pass(b, ctx) != 0 {
				b.Fatal("the fleet at rest moved")
			}
		}
		b.ReportMetric(float64(len(vms)), "columns")
	})
	// A departure from a full 1,000-PM fleet of 5,000 columns (packedFleet),
	// then the pass: one PM re-read, a few (shape, host) cells swept, nothing
	// moved. The VM goes back, and that pass runs, with the timer stopped.
	b.Run("empty-after-departure/1k", func(b *testing.B) {
		ctx := packedFleet(1000)
		pass(b, ctx)
		vms := MigratableVMs(ctx.DC)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm := vms[5*(i%1000)+1] // a one-core VM, a PM further each time
			pm := ctx.DC.PM(vm.Host)
			if err := pm.Evict(vm); err != nil {
				b.Fatal(err)
			}
			if pass(b, ctx) != 0 {
				b.Fatal("the pass after a departure moved")
			}
			b.StopTimer()
			if err := pm.Host(vm); err != nil {
				b.Fatal(err)
			}
			pass(b, ctx)
			b.StartTimer()
		}
		b.ReportMetric(float64(len(vms)), "columns")
	})
}

// BenchmarkKernelArrival measures the paper's arrival path: score the new
// VM's column and take the argmax. "kernel" is BestPlacement (the index's
// score-group argmax); "generic" replicates the pre-kernel path — Joint per PM,
// collect, full sort.
func BenchmarkKernelArrival(b *testing.B) {
	for _, path := range []string{"kernel", "generic"} {
		for _, pms := range benchSizes {
			b.Run(fmt.Sprintf("%s/pms%d", path, pms), func(b *testing.B) {
				ctx, _ := tableIIState(b, pms, 2*pms, 7)
				arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)
				factors := DefaultFactors()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var pm *cluster.PM
					if path == "generic" {
						pm = genericBestPlacement(ctx, factors, arrival)
					} else {
						pm = BestPlacement(ctx, factors, arrival)
					}
					if pm == nil {
						b.Fatal("no placement found")
					}
				}
			})
		}
	}
}

// genericBestPlacement replicates the pre-kernel arrival path: evaluate
// Joint on every active PM, build the candidate slice, sort it, take the
// head (nil when no PM scores above 0). The benchmark times it; the tests
// hold every arrival argmax to it.
func genericBestPlacement(ctx *Context, factors []Factor, vm *cluster.VM) *cluster.PM {
	var out []Placement
	for _, pm := range ctx.DC.ActivePMs() {
		if p := Joint(ctx, factors, vm, pm, false); p > 0 {
			out = append(out, Placement{PM: pm, Probability: p})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].PM.ID < out[j].PM.ID
	})
	if len(out) == 0 {
		return nil
	}
	return out[0].PM
}
