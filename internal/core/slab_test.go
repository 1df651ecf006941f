package core

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// slabState is tableIIState hardened for the slab path's edge cases: a
// zero-reliability PM (p_rel = 0 must propagate as exact +0 through the
// branch-free product), and a batch of expired-estimate VMs (remaining
// estimate below the migration overhead zeroes p_vir — the scalar path
// short-circuits there, the slab path multiplies through).
func slabState(tb testing.TB, pmCount, nVMs int, seed int64) (*Context, []*cluster.VM) {
	tb.Helper()
	ctx, vms := tableIIState(tb, pmCount, nVMs, seed)
	pms := ctx.DC.PMs()
	pms[len(pms)/2].Reliability = 0
	for i := 0; i < len(vms); i += 7 {
		// Elapsed runtime beyond the estimate: RemainingEstimate clamps
		// at zero, so p_vir = 0 for every non-host row.
		vms[i].EstimatedRuntime = 1
		vms[i].StartTime = 0
	}
	return ctx, vms
}

// TestSlabEquivalence is the three-way differential: the batched slab
// fill, the term program's per-cell path (program.cell, which arrivals
// use), and Joint per cell (opaque factors) must produce bit-identical
// probabilities and trackers — including under zero-reliability rows and
// expired-estimate columns where the per-cell paths take their
// literal-zero short circuits. (The frozen oracle is the fourth leg:
// internal/audit's TestSlabMatchesOracleAfterApplies and TrackerCheck.)
func TestSlabEquivalence(t *testing.T) {
	for _, size := range []struct{ pms, vms int }{{7, 11}, {40, 90}, {100, 260}} {
		t.Run(fmt.Sprintf("pms%d", size.pms), func(t *testing.T) {
			ctx, vms := slabState(t, size.pms, size.vms, 17)
			slab, err := NewMatrixWith(ctx, DefaultFactors(), vms, MatrixOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !slab.prog.canonical {
				t.Fatal("default options did not engage the slab path")
			}
			for r, pm := range slab.pms {
				ci := int(slab.rowClass[r])
				for c, vm := range slab.vms {
					want := slab.prog.cell(ctx, ctx.classTab[ci], slab.vir[ci*slab.virStride+c], pm, vm, vm.Host == pm.ID)
					if got := slab.p[r][c]; got != want {
						t.Fatalf("p[%d][%d]: slab %v != per-cell %v", r, c, got, want)
					}
				}
			}
			generic, err := NewMatrix(ctx, opaqueFactors(DefaultFactors()), vms)
			if err != nil {
				t.Fatal(err)
			}
			if generic.prog.known {
				t.Fatal("opaque factors did not force the Joint path")
			}
			assertMatricesEqual(t, slab, generic)
		})
	}
}

// TestSlabEquivalenceAfterApplies drives identical random migration
// sequences through a slab matrix and a generic-path matrix over two
// independent copies of the same fleet state. Every Apply rehomes the
// column in the frame's hosted lists, so divergence here means the lists
// drifted from the live vm.Host fields.
func TestSlabEquivalenceAfterApplies(t *testing.T) {
	ctxSlab, vmsSlab := slabState(t, 60, 140, 29)
	ctxGeneric, vmsGeneric := slabState(t, 60, 140, 29)
	slab, err := NewMatrixWith(ctxSlab, DefaultFactors(), vmsSlab, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	generic, err := NewMatrix(ctxGeneric, opaqueFactors(DefaultFactors()), vmsGeneric)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(5)
	applied := 0
	for step := 0; step < 60; step++ {
		c := rng.Intn(slab.Cols())
		var rows []int
		for r := 0; r < slab.Rows(); r++ {
			if r != slab.curRow[c] && slab.p[r][c] > 0 {
				rows = append(rows, r)
			}
		}
		if len(rows) == 0 {
			continue
		}
		r := rows[rng.Intn(len(rows))]
		if err := slab.Apply(r, c); err != nil {
			t.Fatal(err)
		}
		if err := generic.Apply(r, c); err != nil {
			t.Fatal(err)
		}
		applied++
		assertMatricesEqual(t, slab, generic)
	}
	if applied < 20 {
		t.Fatalf("only %d moves applied; property barely exercised", applied)
	}
}

// TestSlabHostIndexTracksMoves checks the frame's hosted lists directly:
// after a migration the column must appear exactly once, in the target
// row's list.
func TestSlabHostIndexTracksMoves(t *testing.T) {
	ctx, vms := tableIIState(t, 20, 50, 3)
	m, err := NewMatrixWith(ctx, DefaultFactors(), vms, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		seen := make(map[int]int)
		for r := range m.pms {
			for c := m.hosted.head[r]; c >= 0; c = m.hosted.next[c] {
				seen[int(c)]++
				if m.vms[c].Host != m.pms[r].ID {
					t.Fatalf("index lists column %d under PM %d, but VM %d is hosted on PM %d",
						c, m.pms[r].ID, m.vms[c].ID, m.vms[c].Host)
				}
			}
		}
		if len(seen) != len(m.vms) {
			t.Fatalf("index covers %d of %d columns", len(seen), len(m.vms))
		}
		for c, n := range seen {
			if n != 1 {
				t.Fatalf("column %d appears %d times in the index", c, n)
			}
		}
	}
	check()
	rng := stats.NewRand(11)
	for step := 0; step < 30; step++ {
		c := rng.Intn(m.Cols())
		for r := 0; r < m.Rows(); r++ {
			if r != m.curRow[c] && m.p[r][c] > 0 {
				if err := m.Apply(r, c); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		check()
	}
}

// TestSlabAlignment pins the memory-layout contract: every slab view is
// 64-byte aligned, and each class lane of the vir memo starts on a cache
// line (the stride rounds the column count up to a whole line).
func TestSlabAlignment(t *testing.T) {
	for _, n := range []int{1, 7, 8, 63, 64, 65, 1000} {
		var raw, view []float64
		raw, view = alignedFloats(raw, n)
		if len(view) != n {
			t.Fatalf("n=%d: view length %d", n, len(view))
		}
		if addr := uintptr(unsafe.Pointer(&view[0])); addr%slabAlign != 0 {
			t.Fatalf("n=%d: slab base %#x not %d-byte aligned", n, addr, slabAlign)
		}
		// Regrowing through the same raw backing must stay aligned.
		raw, view = alignedFloats(raw, n)
		if addr := uintptr(unsafe.Pointer(&view[0])); addr%slabAlign != 0 {
			t.Fatalf("n=%d: reused slab base %#x not aligned", n, addr)
		}
	}
	if got := alignUp(0); got != 0 {
		t.Fatalf("alignUp(0) = %d", got)
	}
	for _, n := range []int{1, 8, 9, 100} {
		up := alignUp(n)
		if up < n || up%floatsPerLine != 0 || up-n >= floatsPerLine {
			t.Fatalf("alignUp(%d) = %d", n, up)
		}
	}

	ctx, vms := tableIIState(t, 30, 70, 9)
	m, err := NewMatrixWith(ctx, DefaultFactors(), vms, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.virStride != alignUp(len(m.vms)) {
		t.Fatalf("virStride %d, want %d", m.virStride, alignUp(len(m.vms)))
	}
	for ci := range ctx.classTab {
		if addr := uintptr(unsafe.Pointer(&m.vir[ci*m.virStride])); addr%slabAlign != 0 {
			t.Fatalf("vir lane %d base %#x not %d-byte aligned", ci, addr, slabAlign)
		}
	}
}

// BenchmarkKernelSlabRowFill isolates the row-fill hot loop itself — the
// code the slab layout targets — by repeatedly refilling rows of a
// prebuilt matrix, bypassing the tracker maintenance that dominates a full
// build. "generic" is the same row through Joint per cell.
func BenchmarkKernelSlabRowFill(b *testing.B) {
	for _, path := range []string{"slab", "generic"} {
		for _, pms := range benchSizes {
			b.Run(fmt.Sprintf("%s/pms%d", path, pms), func(b *testing.B) {
				ctx, vms := tableIIState(b, pms, 2*pms, 7)
				m, err := NewMatrix(ctx, pathFactors(path), vms)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.fillRow(i % m.Rows())
				}
				b.ReportMetric(float64(len(vms)), "cells")
			})
		}
	}
}
