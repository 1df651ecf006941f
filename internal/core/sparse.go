package core

import (
	"fmt"

	"repro/internal/cluster"
)

// SparseMatrix is the cold candidate-set engine: it derives the same
// per-column trackers as the dense Matrix — current-placement normalizer,
// best alternative row, best gain — from the Context's candidate index
// (candidates.go) instead of a materialized M x N probability matrix.
// Column scans touch one score group per distinct (class, level,
// reliability) signature rather than one row per PM. Production passes
// build no engine (bound.go); this one is the group-scan reference the
// lazy rounds are held to — SelfAudit's per-round cold build, the auditor's
// SparseCheck, the fuzz harnesses — so an Apply simply re-derives every
// column.
//
// Every decision is bit-identical to the dense engine by construction:
// group values are evaluated in the cell's multiplication order on
// bit-identical operands, ties resolve to the lowest member ID (dense's
// ID-ordered strict-greater scan), and the column trackers and Best are the
// dense engine's own (colTrackers). The contract is enforced by DiffDense
// against a dense build (the auditor's SparseCheck, SelfAudit) and the
// differential fuzz harness in internal/audit.
type SparseMatrix struct {
	// frame is the pass state shared with the dense engine: axes, ID
	// table, class/shape ids, p_vir memo, hosted-cell memo, trackers, move.
	frame
	cand *candIndex
}

// NewSparseMatrix builds the sparse engine over the data center's active
// PMs and the given VMs. It requires a Canonical factor list (anything
// else errors); the same VM-set preconditions as NewMatrixWith apply (no
// duplicates, every VM hosted on an active PM).
func NewSparseMatrix(ctx *Context, factors []Factor, vms []*cluster.VM, opts MatrixOptions) (*SparseMatrix, error) {
	return newSparseMatrix(ctx, factors, vms, nil, opts)
}

// newSparseMatrix is NewSparseMatrix with the columns' shape ids, when the
// caller has them (frame.init).
func newSparseMatrix(ctx *Context, factors []Factor, vms []*cluster.VM, shapes []int32, opts MatrixOptions) (*SparseMatrix, error) {
	if !Canonical(factors) {
		return nil, fmt.Errorf("core: sparse matrix requires the canonical default factors")
	}
	var f frame
	if err := f.init(ctx, factors, vms, shapes, opts); err != nil {
		return nil, err
	}
	sm := &f.scr.sparse
	*sm = SparseMatrix{frame: f, cand: ctx.candidatesWith(opts.Workers)}
	for _, id := range sm.shapes {
		sm.cand.shape(id)
	}
	sm.refreshAll()
	return sm, nil
}

// refreshAll derives every column's trackers from scratch. The serial path
// is one refreshColumn per column; with more than one worker the columns
// shard across workers in spans — each column's normalizer, best
// alternative and gain land in that column's own slots, with the per-row
// hosted memo prewarmed so hostProb is read-only. Both paths are
// bit-identical: per-column values come from the same code on the same
// operands.
func (sm *SparseMatrix) refreshAll() {
	nc := len(sm.vms)
	workers := claimWorkers(sm.opts.Workers, nc)
	if workers <= 1 {
		for c := range sm.vms {
			sm.refreshColumn(c)
		}
		return
	}
	for r := range sm.pms {
		sm.hostProb(r) // prewarm the memo: read-only below
	}
	runSpans(workers, nc, spanChunk(nc, workers), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			sm.refreshColumn(c)
		}
	})
}

// shapeOf returns the score-group index of column c's demand shape.
func (sm *SparseMatrix) shapeOf(c int) *candShape { return sm.cand.shapes[sm.colShape[c]] }

// refreshColumn re-derives column c's trackers: the current placement
// normalizer and a scan over the shape's score groups.
func (sm *SparseMatrix) refreshColumn(c int) {
	sm.curRow[c] = sm.hostRow(c)
	sm.curProb[c] = sm.hostProb(sm.curRow[c])
	bestRow, bestP := sm.scanColumn(c)
	sm.setBest(c, bestRow, bestP)
}

// scanColumn computes column c's best non-host alternative over the
// shape's score groups (candShape.best) with the frame's p_vir memo.
func (sm *SparseMatrix) scanColumn(c int) (bestRow int, bestP float64) {
	id, p := sm.shapeOf(c).best(sm.hostID(c), sm.curProb[c], sm.virs(c, make([]float64, 0, 4)))
	if id < 0 {
		return -1, 0
	}
	return int(sm.id2row[id]), p
}

// virs appends column c's p_vir against every class to dst.
func (sm *SparseMatrix) virs(c int, dst []float64) []float64 {
	for i := c; i < len(sm.vir); i += len(sm.vms) {
		dst = append(dst, sm.vir[i])
	}
	return dst
}

// hostID is the PM ID of column c's host, what candGroup.candidate skips.
func (sm *SparseMatrix) hostID(c int) int32 { return int32(sm.pms[sm.curRow[c]].ID) }

// Apply performs the move for column c to row r (frame.move, exactly as
// Matrix.Apply), re-syncs both endpoints in the candidate index and
// re-derives every column.
func (sm *SparseMatrix) Apply(r, c int) error {
	from, err := sm.move(r, c)
	if err != nil {
		return err
	}
	sm.cand.syncPM(int32(sm.pms[from].ID))
	sm.cand.syncPM(int32(sm.pms[r].ID))
	sm.refreshAll()
	if sm.opts.SelfAudit {
		if err := sm.verifyDense(); err != nil {
			return fmt.Errorf("core: sparse self-audit after moving VM %d to PM %d: %w", sm.vms[c].ID, sm.pms[r].ID, err)
		}
	}
	return nil
}

// SelfCheck re-derives every column tracker from a fresh group scan and
// validates the candidate index's internal structure, reporting the first
// divergence.
func (sm *SparseMatrix) SelfCheck() error {
	for c, vm := range sm.vms {
		row, ok := sm.RowOf(vm.Host)
		if !ok {
			return fmt.Errorf("core: column %d (VM %d) hosted on PM %d outside the matrix", c, vm.ID, vm.Host)
		}
		pm := sm.pms[row]
		want := 0.0
		if pm.Reliability != 0 {
			want = pm.Reliability * effProbability(sm.ctx.classInfoFor(pm), pm.Utilization())
		}
		if err := sm.checkCur(c, row, want); err != nil {
			return err
		}
		bestRow, bestP := sm.scanColumn(c)
		if err := sm.checkBest(c, bestRow, bestP); err != nil {
			return err
		}
	}
	return sm.checkIndex()
}

// checkIndex validates the candidate index's structural invariants for
// every shape the matrix uses: sorted member lists, a consistent groupOf
// inverse, and membership signatures that match a fresh evaluation.
func (sm *SparseMatrix) checkIndex() error {
	x := sm.cand
	for si, sh := range x.shapeList {
		nonEmpty := 0
		for gi := range sh.groups {
			g := &sh.groups[gi]
			if len(g.members) > 0 {
				nonEmpty++
			}
			for i, id := range g.members {
				if i > 0 && g.members[i-1] >= id {
					return fmt.Errorf("core: shape %d group %d members out of order", si, gi)
				}
				if sh.groupOf[id] != int32(gi) {
					return fmt.Errorf("core: shape %d PM %d groupOf %d != group %d", si, id, sh.groupOf[id], gi)
				}
			}
		}
		if nonEmpty != sh.nonEmpty {
			return fmt.Errorf("core: shape %d nonEmpty %d, counted %d", si, sh.nonEmpty, nonEmpty)
		}
		for id, pm := range x.pms {
			key, _, _, ok := x.membership(pm, sh.demand)
			gi := sh.groupOf[id]
			if !ok {
				if gi >= 0 {
					return fmt.Errorf("core: shape %d PM %d grouped but excluded on re-evaluation", si, id)
				}
				continue
			}
			if gi < 0 {
				return fmt.Errorf("core: shape %d PM %d ungrouped but eligible (key %+v)", si, id, key)
			}
			if sh.groups[gi].key != key {
				return fmt.Errorf("core: shape %d PM %d in group %+v, want %+v", si, id, sh.groups[gi].key, key)
			}
		}
	}
	return nil
}

// DiffDense compares the sparse trackers against a dense Matrix built over
// the same VMs: dimensions, identities, normalizers, best alternatives,
// and the Best extraction must all be bit-identical. It is the oracle
// check behind the auditor's sparse differential and the fuzz harness.
func (sm *SparseMatrix) DiffDense(o *Matrix) error { return sm.diffTrackers(&o.frame) }

// DiffSparse compares two sparse engines tracker-for-tracker: dimensions,
// row/column identities, normalizers, best alternatives, and the Best
// extraction must all be bit-identical. It is the equivalence gate behind
// the parallel-kernel tests, which compare sparse builds at different
// worker counts.
func (sm *SparseMatrix) DiffSparse(o *SparseMatrix) error { return sm.diffTrackers(&o.frame) }

// verifyDense checks the live sparse state against a cold dense build over
// the same VM set (SelfAudit mode), plus the from-scratch self check.
func (sm *SparseMatrix) verifyDense() error {
	opts := sm.opts
	opts.SelfAudit = false
	fresh, err := NewMatrixWith(sm.ctx, sm.factors, sm.vms, opts)
	if err != nil {
		return fmt.Errorf("core: dense rebuild failed: %w", err)
	}
	defer fresh.Release()
	if err := sm.SelfCheck(); err != nil {
		return err
	}
	return sm.DiffDense(fresh)
}

// ColumnShortlist returns column c's candidate shortlist: every feasible
// non-host PM with a positive probability, ordered (probability desc, PM
// ID asc) and truncated to at most k entries. The head, when present, is
// exactly the tracked best alternative; the property tests compare the
// list against a dense column ranking.
func (sm *SparseMatrix) ColumnShortlist(c, k int) []Placement {
	return sm.cand.shortlist(nil, sm.shapeOf(c), sm.hostID(c), sm.virs(c, nil), k)
}

// alternatives is the sparse twin of Matrix.ColumnAlternatives
// (candIndex.alternatives): the same PMs and bit-equal gains as the dense
// column scan.
func (sm *SparseMatrix) alternatives(c, k int) []Placement {
	best := int32(-1)
	if r := sm.bestRow[c]; r >= 0 {
		best = int32(sm.pms[r].ID)
	}
	return sm.cand.alternatives(sm.shapeOf(c), sm.hostID(c), sm.curProb[c], sm.virs(c, nil), best, k)
}

// ArrivalShortlist returns the sparse top-k shortlist for placing vm —
// RankPlacements' exact ordering truncated to k — and ok = true when the
// candidate index covers the factor program. Callers outside the tests
// want BestPlacementWith; this exists so the shortlist-containment
// property is checkable from outside the package.
func ArrivalShortlist(ctx *Context, factors []Factor, vm *cluster.VM, k int) ([]Placement, bool) {
	if !Canonical(factors) {
		return nil, false
	}
	x := ctx.candidates()
	sh := x.shape(ctx.shapeID(vm.Demand))
	ctx.virBuf = ctx.appendVirs(ctx.virBuf[:0], vm)
	return x.shortlist(nil, sh, -1, ctx.virBuf, k), true
}
