package core

import "unsafe"

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
//     per-column slab (effCol[c] = effZ[colShape[c]]);
//  3. one branch-free fused product over contiguous slices,
//     out[c] = (vir[c] * rel) * effCol[c], with the slice bounds hoisted
//     so the compiler drops the per-iteration bounds checks;
//
// followed by an O(hosted) patch loop that overwrites the columns this
// row currently hosts (the frame's hosted lists, kept in sync with
// migrations by frame.move). The virtualization memo is the frame's,
// stored class-major — one contiguous, cache-line-aligned lane per PM
// class, the exact slice the inner loop streams.
//
// Bit-exactness. The per-cell path (program.cell, Joint) computes
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

// fillRowSlab evaluates every cell of row r through the batched slab
// path. Results are bit-identical to a per-cell walk of the term program
// (see the file comment); the difference is purely mechanical: no
// per-cell branches, no strided loads, and a single fused multiply chain
// the compiler can keep in registers.
func (m *Matrix) fillRowSlab(r int, rs *rowScratch) {
	pm := m.pms[r]
	ci := int(m.rowClass[r])
	info := m.ctx.classTab[ci]
	rel := pm.Reliability
	n := len(m.vms)

	// Pass 1: per-demand-shape efficiency memo, indexed by shape id,
	// infeasible shapes as literal zero so the fused product needs no
	// feasibility gate. Only the shapes this frame's columns use are
	// evaluated (and read below).
	effZ := rs.shapeSlab(len(m.ctx.shapeTab))
	for _, id := range m.shapes {
		demand := m.ctx.shapeTab[id].demand
		if pm.CanHost(demand) {
			effZ[id] = effProbability(info, prospectiveUtilization(pm, demand))
		} else {
			effZ[id] = 0
		}
	}

	// Pass 2: gather the shape memo into a contiguous per-column slab.
	effCol := rs.colSlab(n)
	colShape := m.colShape[:n]
	for c := range effCol {
		effCol[c] = effZ[colShape[c]]
	}

	// Pass 3: fused Eq. 1 product over contiguous, aligned slices. The
	// re-slices pin every operand to length n so the bounds checks hoist
	// out of the loop; the body is branch-free straight-line code.
	virRow := m.vir[ci*m.virStride : ci*m.virStride+n : ci*m.virStride+n]
	out := m.p[r][:n]
	effCol = effCol[:n]
	for c := range out {
		out[c] = virRow[c] * rel * effCol[c]
	}

	// Patch the hosted cells (frame.hostProb).
	if c := m.hosted.head[r]; c >= 0 {
		hosted := m.hostProb(r)
		for ; c >= 0; c = m.hosted.next[c] {
			out[c] = hosted
		}
	}
}
