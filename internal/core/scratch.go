package core

import "repro/internal/cluster"

// This file holds the Context's reusable scratch storage. The placement
// paths run once per arrival and once per control period for the whole
// simulation; rebuilding their backing slices from nothing each time made
// allocation churn, not arithmetic, the steady-state cost. The pool
// follows a checkout model so overlapping builds (the audit's differential
// rebuilds, SelfAudit's cold rebuilds) stay correct: a build detaches the
// scratch from the Context, a Release re-attaches it, and a build that
// finds no scratch attached simply allocates a fresh one that is either
// re-attached on its own Release or left to the GC.

// matrixScratch is the reusable backing store for one dense Matrix — the
// Matrix value itself included, which is why a matrix must not be used
// after Release.
type matrixScratch struct {
	dense Matrix

	// The axes, the p_vir memo and the column trackers.
	pms      []*cluster.PM
	vms      []*cluster.VM
	id2row   []int32
	rowClass []int32
	vir      []float64
	trk      colTrackers

	// The compiled program, the probability storage — pflat sliced into
	// row headers (prows) so Matrix.p keeps its [][]float64 shape without
	// per-row allocations — and the rescan lists.
	terms   []term
	pflat   []float64
	prows   [][]float64
	pending []int
	cols    []int
}

// takeScratch detaches the Context's matrix scratch (allocating one on
// first use or while another build has it checked out).
func (ctx *Context) takeScratch() *matrixScratch {
	scr := ctx.fscratch
	if scr == nil {
		scr = &matrixScratch{}
	}
	ctx.fscratch = nil
	return scr
}

// grow resizes *s to n elements, reallocating only when capacity is short,
// and returns it. Contents are unspecified; callers overwrite every
// element.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}
