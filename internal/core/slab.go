package core

import (
	"unsafe"

	"repro/internal/cluster"
)

// This file implements the batched, SIMD-friendly evaluation path of the
// factored kernel: instead of walking a row cell by cell with per-cell
// branches (feasibility gate, two zero short-circuits, a hosted-cell
// special case), fillRowSlab evaluates the whole row as three fused
// passes over flat, 64-byte-aligned float64 slabs laid out structure-of-
// arrays:
//
//  1. a per-demand-shape pass computing the efficiency term, with
//     infeasible shapes stored as literal 0 (D evaluations);
//  2. a gather expanding the D-entry shape memo into a contiguous
//     per-column slab (effCol[c] = effZ[demIdx[c]]);
//  3. one branch-free fused product over contiguous slices,
//     out[c] = (vir[c] * rel) * effCol[c], with the slice bounds hoisted
//     so the compiler drops the per-iteration bounds checks;
//
// followed by an O(hosted) patch loop that overwrites the columns this
// row currently hosts (located through a per-row linked index kept in
// sync with migrations by moveHosted). The virtualization memo is stored
// class-major — one contiguous, cache-line-aligned lane of length ncols per
// PM class, the exact slice the inner loop streams.
//
// Bit-exactness. The per-cell path (cellDefault, Joint) computes
// ((p_vir * p_rel)) * p_eff with literal-zero short circuits; every operand
// here is a finite, non-negative float64 (probabilities and Eq. 4-5
// levels), so replacing a short-circuited literal 0 with the actual product
// against a zero factor yields the same +0 bit pattern, and the fused pass
// multiplies in the identical order on bit-identical operands. The slab
// path is therefore bit-identical to the generic Factor path and the
// frozen oracle — asserted by TestSlabEquivalence and the audit
// differential oracle.

// slabAlign is the alignment of every slab base, in bytes: one x86/ARM
// cache line, which is also the widest vector register footprint (AVX-512)
// that a future vectorized build could use without split loads.
const slabAlign = 64

// floatsPerLine is slabAlign in float64 units.
const floatsPerLine = slabAlign / 8

// alignUp rounds n up to a multiple of floatsPerLine, so consecutive
// class lanes inside one slab all start on cache-line boundaries.
func alignUp(n int) int {
	return (n + floatsPerLine - 1) &^ (floatsPerLine - 1)
}

// alignedFloats returns (raw, view) where view is a length-n float64
// slice whose base address is slabAlign-aligned, carved out of raw. raw
// is the (possibly re-grown) backing array to stash back into scratch so
// the capacity survives across builds; callers must address the slab only
// through view.
func alignedFloats(raw []float64, n int) ([]float64, []float64) {
	if n == 0 {
		return raw, nil
	}
	need := n + floatsPerLine - 1
	if cap(raw) < need {
		raw = make([]float64, need)
	}
	raw = raw[:cap(raw)]
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % slabAlign; rem != 0 {
		off = int((slabAlign - rem) / 8)
	}
	return raw, raw[off : off+n : off+n]
}

// buildHostIndex compiles the per-row index of hosted cells: hostHead[r]
// heads a doubly-linked list (threaded through hostNext/hostPrev, indexed
// by column, -1 terminated) of the columns whose VM currently resides on
// row r. Unhosted columns (arrival evaluations, vm.Host == NoPM) appear
// in no list. The index is what lets the slab fill run branch-free over
// all N columns and patch the (typically ~N/M per row) hosted cells
// afterwards; linked lists rather than a packed CSR because Matrix.Apply
// rehomes one column per move and the index must follow in O(1)
// (moveHosted) — a packed layout would need an O(N) shift per move.
func (k *kernel) buildHostIndex(ks *kernScratch, pms []*cluster.PM, vms []*cluster.VM) {
	// Arrival evaluations compile a kernel per event over a single unhosted
	// column; skip the per-row index rebuild entirely when no column is
	// hosted so that path stays O(1) beyond the vir memo.
	anyHosted := false
	for _, vm := range vms {
		if vm.Host != cluster.NoPM {
			anyHosted = true
			break
		}
	}
	if !anyHosted {
		k.hostHead, k.hostNext, k.hostPrev = nil, nil, nil
		return
	}
	if ks.hostIdx == nil {
		ks.hostIdx = make(map[cluster.PMID]int32, len(pms))
	} else {
		clear(ks.hostIdx)
	}
	for r, pm := range pms {
		ks.hostIdx[pm.ID] = int32(r)
	}
	k.hostHead = growInt32s(ks.hostHead, len(pms))
	ks.hostHead = k.hostHead
	k.hostNext = growInt32s(ks.hostNext, len(vms))
	ks.hostNext = k.hostNext
	k.hostPrev = growInt32s(ks.hostPrev, len(vms))
	ks.hostPrev = k.hostPrev
	for r := range k.hostHead {
		k.hostHead[r] = -1
	}
	// Reverse column order so each push-front leaves the lists ascending —
	// the patch loop then walks columns in memory order.
	for c := len(vms) - 1; c >= 0; c-- {
		hr, ok := ks.hostIdx[vms[c].Host]
		if !ok {
			k.hostNext[c], k.hostPrev[c] = -1, -1
			continue
		}
		head := k.hostHead[hr]
		k.hostNext[c], k.hostPrev[c] = head, -1
		if head >= 0 {
			k.hostPrev[head] = int32(c)
		}
		k.hostHead[hr] = int32(c)
	}
}

// moveHosted rehomes column c from row `from` to row `to` in the hosted
// index, mirroring the vm.Host mutation Matrix.Apply just performed so
// subsequent slab row fills patch the right cells. O(1).
func (k *kernel) moveHosted(c, from, to int) {
	if k.hostHead == nil {
		return
	}
	if p := k.hostPrev[c]; p >= 0 {
		k.hostNext[p] = k.hostNext[c]
	} else {
		k.hostHead[from] = k.hostNext[c]
	}
	if n := k.hostNext[c]; n >= 0 {
		k.hostPrev[n] = k.hostPrev[c]
	}
	head := k.hostHead[to]
	k.hostNext[c], k.hostPrev[c] = head, -1
	if head >= 0 {
		k.hostPrev[head] = int32(c)
	}
	k.hostHead[to] = int32(c)
}

// fillRowSlab evaluates every cell of row r through the batched slab
// path. Results are bit-identical to a per-cell cellDefault walk (see the
// file comment); the difference is purely mechanical: no per-cell
// branches, no strided loads, and a single fused multiply chain the
// compiler can keep in registers.
func (k *kernel) fillRowSlab(r int, pm *cluster.PM, vms []*cluster.VM, out []float64, rs *rowScratch) {
	ci := k.rowClass[r]
	info := k.infos[ci]
	rel := pm.Reliability
	n := len(vms)

	// Pass 1: per-demand-shape efficiency memo, infeasible shapes as
	// literal zero so the fused product needs no feasibility gate.
	effZ := rs.shapeSlab(len(k.demands))
	for di, demand := range k.demands {
		if pm.CanHost(demand) {
			effZ[di] = effProbability(info, prospectiveUtilization(pm, demand))
		} else {
			effZ[di] = 0
		}
	}

	// Pass 2: gather the shape memo into a contiguous per-column slab.
	effCol := rs.colSlab(n)
	demIdx := k.demIdx[:n]
	for c := range effCol {
		effCol[c] = effZ[demIdx[c]]
	}

	// Pass 3: fused Eq. 1 product over contiguous, aligned slices. The
	// re-slices pin every operand to length n so the bounds checks hoist
	// out of the loop; the body is branch-free straight-line code.
	virRow := k.vir[ci*k.virStride : ci*k.virStride+n : ci*k.virStride+n]
	out = out[:n]
	effCol = effCol[:n]
	for c := range out {
		out[c] = virRow[c] * rel * effCol[c]
	}

	// Patch the hosted cells: p_res = p_vir = 1 there, and p_eff reads
	// the PM's present utilization (which already includes its VMs).
	if k.hostHead == nil {
		return
	}
	if c0 := k.hostHead[r]; c0 >= 0 {
		hosted := rel * effProbability(info, pm.Utilization())
		for c := c0; c >= 0; c = k.hostNext[c] {
			out[c] = hosted
		}
	}
}
