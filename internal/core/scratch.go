package core

import (
	"repro/internal/cluster"
	"repro/internal/vector"
)

// This file holds the Context's reusable scratch storage. The placement
// paths run once per arrival and once per control period for the whole
// simulation; rebuilding their backing slices and maps from nothing each
// time made allocation churn, not arithmetic, the steady-state cost. The
// pools follow a checkout model so overlapping builds (the audit's
// differential matrix rebuilds) stay correct: a build detaches the
// scratch from the Context, a Release re-attaches it, and a build that
// finds no scratch attached simply allocates a fresh one that is either
// re-attached on its own Release or left to the GC.

// matrixScratch is the reusable backing store for one Matrix and its
// compiled kernel.
type matrixScratch struct {
	pms []*cluster.PM
	vms []*cluster.VM

	rowOf map[cluster.PMID]int
	colOf map[cluster.VMID]int

	// pflat is the probability storage, sliced into row headers (prows)
	// so Matrix.p keeps its [][]float64 shape without per-row allocations.
	pflat []float64
	prows [][]float64

	trk     colTrackers
	pending []int
	cols    []int

	ks kernScratch
	rs rowScratch
}

// kernScratch is the reusable backing store for one compiled kernel.
type kernScratch struct {
	kern     kernel
	terms    []term
	rowClass []int
	infos    []*classInfo
	vir      []float64 // raw backing of the aligned vir slab (see alignedFloats)
	demIdx   []int
	demands  []vector.V
	classIdx map[*cluster.PMClass]int
	shapes   map[string]int
	key      []byte

	// Hosted-cell index storage (see kernel.buildHostIndex).
	hostHead []int32
	hostNext []int32
	hostPrev []int32
	hostIdx  map[cluster.PMID]int32
}

// rowScratch holds the slab row fill's aligned working slabs. Every
// concurrent row filler owns one; the serial fill and recomputeRow reuse
// the matrix's.
type rowScratch struct {
	// Raw backings for the aligned views (alignedFloats): effZRaw holds
	// the per-demand-shape efficiency memo, effColRaw its per-column
	// expansion.
	effZRaw   []float64
	effColRaw []float64
}

// shapeSlab returns the aligned per-demand-shape slab sized for d shapes.
// Contents are unspecified; fillRowSlab writes every entry.
func (rs *rowScratch) shapeSlab(d int) []float64 {
	var v []float64
	rs.effZRaw, v = alignedFloats(rs.effZRaw, d)
	return v
}

// colSlab returns the aligned per-column slab sized for n columns.
// Contents are unspecified; fillRowSlab writes every entry.
func (rs *rowScratch) colSlab(n int) []float64 {
	var v []float64
	rs.effColRaw, v = alignedFloats(rs.effColRaw, n)
	return v
}

// arrivalScratch is the per-arrival evaluation state BestPlacement and
// RankPlacements reuse: the active-PM row set and a single-column kernel.
// Arrivals are strictly sequential within a simulation, so plain reuse
// (no checkout) is safe here.
type arrivalScratch struct {
	pms   []*cluster.PM
	vmBuf [1]*cluster.VM
	ks    kernScratch
}

// takeScratch detaches the Context's matrix scratch (allocating one on
// first use or while another build has it checked out).
func (ctx *Context) takeScratch() *matrixScratch {
	scr := ctx.mscratch
	if scr == nil {
		scr = &matrixScratch{
			rowOf: make(map[cluster.PMID]int),
			colOf: make(map[cluster.VMID]int),
		}
	}
	ctx.mscratch = nil
	clear(scr.rowOf)
	clear(scr.colOf)
	return scr
}

// Release returns the matrix's backing storage to its Context for the
// next build to reuse. The matrix must not be used afterwards. Release is
// optional — an un-released matrix just leaves its storage to the GC, and
// when several matrices over one Context are alive at once (the audit's
// differential rebuilds) only the first Release re-attaches.
func (m *Matrix) Release() {
	if m == nil || m.scr == nil {
		return
	}
	scr := m.scr
	m.scr = nil
	// Store the possibly-regrown slices back so their capacity survives.
	scr.pms, scr.vms = m.pms, m.vms
	scr.prows, scr.trk, scr.pending = m.p, m.colTrackers, m.pending
	if m.ctx.mscratch == nil {
		m.ctx.mscratch = scr
	}
}

// growFloats returns s resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite every element.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
