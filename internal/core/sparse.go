package core

import (
	"fmt"

	"repro/internal/cluster"
)

// SparseMatrix is the candidate-set consolidation engine, the one every
// Canonical factor list runs on: it maintains the same per-column trackers
// as the dense Matrix — current-placement normalizer, best alternative row,
// best gain — but derives them from the Context's candidate index
// (candidates.go) instead of a materialized M x N probability matrix.
// Column scans touch one score group per distinct (class, level,
// reliability) signature rather than one row per PM, and an Apply
// re-derives only the two migration endpoints plus the columns their
// membership events can actually affect.
//
// Every decision is bit-identical to the dense engine by construction:
// group values are evaluated in the cell's multiplication order on
// bit-identical operands, ties resolve to the lowest member ID (dense's
// ID-ordered strict-greater scan), and the column trackers and Best are the
// dense engine's own (colTrackers). The contract is enforced three ways —
// DiffDense against a dense build (the auditor's SparseCheck), the
// per-Apply SelfAudit rebuild, and the differential fuzz harness in
// internal/audit.
type SparseMatrix struct {
	// frame is the pass state shared with the dense engine: axes, ID
	// table, class/shape ids, p_vir memo, hosted lists, trackers, move.
	frame
	cand *candIndex

	colSeq []uint64 // Apply seq that last re-derived the column in full

	// Reverse indices so Apply can enumerate exactly the columns a move
	// invalidates instead of scanning all N: best lists, per row, the
	// columns whose cached best is that row (maintained by setBest);
	// byShape lists the columns of each demand shape (by Context shape
	// id), for the join test.
	best    colLists
	byShape colLists

	// seq numbers Applies; candShape.seq/ev are valid for the current
	// Apply only when they carry this value.
	seq uint64
}

// NewSparseMatrix builds the sparse engine over the data center's active
// PMs and the given VMs. It requires a Canonical factor list (anything
// else errors; ConsolidateWith sends those to the dense Matrix before
// getting here); the same VM-set preconditions as NewMatrixWith apply (no
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
	*sm = SparseMatrix{frame: f}
	// The frame interned the class of every active PM — the only PMs that
	// can ever join a group — so no class can surface mid-consolidation
	// and index past the p_vir memo.
	sm.cand = ctx.candidatesWith(opts.Workers)
	for _, id := range sm.shapes {
		sm.cand.shape(id)
	}

	scr, nc := sm.scr, len(sm.vms)
	sm.colSeq = grow(&scr.colSeq, nc)
	clear(sm.colSeq)
	scr.best.reset(len(sm.pms), nc)
	scr.byShape.reset(len(ctx.shapeTab), nc)
	sm.best, sm.byShape = scr.best, scr.byShape
	for c := nc - 1; c >= 0; c-- {
		sm.bestRow[c] = -1
		sm.byShape.push(int(sm.colShape[c]), c)
	}
	sm.initialSync()
	return sm, nil
}

// initialSync derives every column's trackers for the first time. The
// serial path is one refreshColumn per column; with more than one worker
// the scan phase shards across workers in column spans — each column's
// normalizer, best alternative, and gain land in that column's own slots,
// with the per-row hosted memo prewarmed so hostProb is read-only — and
// the shared best lists are then installed serially in column order,
// reproducing the serial loop's exact push order. Both paths are
// bit-identical: per-column values come from the same scanColumn code on
// the same operands.
func (sm *SparseMatrix) initialSync() {
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
			sm.curRow[c] = sm.hostRow(c)
			sm.curProb[c] = sm.hostProb(sm.curRow[c])
			bestRow, bestP := sm.scanColumn(c)
			sm.colTrackers.setBest(c, bestRow, bestP)
		}
	})
	for c, br := range sm.bestRow {
		if br >= 0 {
			sm.best.push(br, c)
		}
	}
}

// shapeOf returns the score-group index of column c's demand shape.
func (sm *SparseMatrix) shapeOf(c int) *candShape { return sm.cand.shapes[sm.colShape[c]] }

// refreshColumn re-derives column c's trackers from scratch: the current
// placement normalizer and a scan over the shape's score groups.
func (sm *SparseMatrix) refreshColumn(c int) {
	sm.colSeq[c] = sm.seq
	sm.curRow[c] = sm.hostRow(c)
	sm.curProb[c] = sm.hostProb(sm.curRow[c])
	bestRow, bestP := sm.scanColumn(c)
	sm.setBest(c, bestRow, bestP)
}

// scanColumn computes column c's best non-host alternative over the
// shape's score groups: the lowest-ID feasible PM maximizing the raw
// probability when the normalizer is positive, or the lowest-ID PM with
// any positive probability for a +Inf rescue column — exactly the dense
// refreshColumns rules.
func (sm *SparseMatrix) scanColumn(c int) (bestRow int, bestP float64) {
	sh := sm.shapeOf(c)
	cur := sm.curProb[c]
	host := sm.hostID(c)
	bestID := int32(-1)
	for gi := range sh.groups {
		g := &sh.groups[gi]
		cand := g.candidate(host)
		if cand < 0 {
			continue
		}
		p := sm.groupValue(g, c)
		if cur > 0 {
			if p > bestP || (p == bestP && bestID >= 0 && cand < bestID) {
				bestP, bestID = p, cand
			}
		} else if p > 0 && (bestID < 0 || cand < bestID) {
			bestP, bestID = p, cand
		}
	}
	if bestID < 0 {
		return -1, 0
	}
	return int(sm.id2row[bestID]), bestP
}

// hostID is the PM ID of column c's host, what candGroup.candidate skips.
func (sm *SparseMatrix) hostID(c int) int32 { return int32(sm.pms[sm.curRow[c]].ID) }

// groupValue is the probability every member of g shares for column c.
func (sm *SparseMatrix) groupValue(g *candGroup, c int) float64 {
	return g.value(sm.vir[int(g.key.ci)*len(sm.vms)+c])
}

// setBest installs a freshly computed (bestRow, bestP) pair and the
// derived gain for column c, keeping the best lists in step.
func (sm *SparseMatrix) setBest(c, bestRow int, bestP float64) {
	if old := sm.bestRow[c]; old != bestRow {
		sm.best.move(c, old, bestRow)
	}
	sm.colTrackers.setBest(c, bestRow, bestP)
}

// Apply performs the move for column c to row r (frame.move, exactly as
// Matrix.Apply) and incrementally repairs the trackers. The repair re-derives only the two endpoint PMs' group memberships and
// the columns those membership events can affect:
//
//   - the moved column and every column hosted on an endpoint re-derive in
//     full (their normalizer changed);
//   - a column whose cached best is an endpoint re-derives only when that
//     endpoint actually changed groups in the column's shape (otherwise
//     its probability is untouched);
//   - a join event whose PM became one of its new group's two lowest
//     members is tested against each remaining column of the shape in
//     O(1) — the only way an untouched column's best can improve, since a
//     pre-Apply-exact tracker already dominates every standing group.
func (sm *SparseMatrix) Apply(r, c int) error {
	from, err := sm.move(r, c)
	if err != nil {
		return err
	}
	ends := [2]int{from, r}
	sm.seq++
	x := sm.cand
	x.events = x.events[:0]
	for _, row := range ends {
		x.syncPM(int32(sm.pms[row].ID))
	}
	for i := range x.events {
		ev := &x.events[i]
		sh := ev.shape
		if sh.seq != sm.seq {
			sh.seq = sm.seq
			sh.ev = [2]bool{}
		}
		if ev.pm == int32(sm.pms[from].ID) {
			sh.ev[0] = true
		} else {
			sh.ev[1] = true
		}
	}

	// Targeted repair via the reverse indices. frame.move has already
	// rehomed the moved column, so the hosted lists stand still; a refresh
	// may unlink its column from the best list being walked, so that walk
	// reads each successor first. colSeq bounds every column to one
	// re-derivation per Apply.
	for _, row := range ends {
		for c2 := sm.hosted.head[row]; c2 >= 0; c2 = sm.hosted.next[c2] {
			sm.refreshColumn(int(c2))
		}
	}
	for end, row := range ends {
		for c2, next := sm.best.head[row], int32(0); c2 >= 0; c2 = next {
			next = sm.best.next[c2]
			if sh := sm.shapeOf(int(c2)); sm.colSeq[c2] != sm.seq && sh.seq == sm.seq && sh.ev[end] {
				sm.refreshColumn(int(c2))
			}
		}
	}

	for i := range x.events {
		ev := &x.events[i]
		if ev.new < 0 {
			continue
		}
		g := &ev.shape.groups[ev.new]
		// Only a joiner that landed among its group's two lowest members
		// can become any column's candidate (the second-lowest matters
		// when the lowest is the column's host).
		if g.members[0] != ev.pm && (len(g.members) < 2 || g.members[1] != ev.pm) {
			continue
		}
		sm.joinUpdate(ev.shape, g)
	}

	if sm.opts.SelfAudit {
		if err := sm.verifyDense(); err != nil {
			return fmt.Errorf("core: sparse self-audit after moving VM %d to PM %d: %w", sm.vms[c].ID, sm.pms[r].ID, err)
		}
	}
	return nil
}

// joinUpdate tests one group of shape sh — whose candidate member just
// changed — as an improved best against every column of the shape (none,
// when the index tracks the shape only for arrival placements).
func (sm *SparseMatrix) joinUpdate(sh *candShape, g *candGroup) {
	for c32 := sm.byShape.head[sh.id]; c32 >= 0; c32 = sm.byShape.next[c32] {
		c := int(c32)
		// A column re-derived this Apply is exact: scanColumn already
		// covered every standing group, so strict improvement is
		// impossible and the test below would be a guaranteed no-op.
		if sm.colSeq[c] == sm.seq {
			continue
		}
		if cand := g.candidate(sm.hostID(c)); cand >= 0 {
			if candRow, p := int(sm.id2row[cand]), sm.groupValue(g, c); sm.beats(c, candRow, p) {
				sm.setBest(c, candRow, p)
			}
		}
	}
}

// SelfCheck re-derives every column tracker from a fresh group scan and
// validates the reverse indices and the candidate index's internal
// structure, reporting the first divergence — the incremental Apply repair must never
// drift from a from-scratch derivation.
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
	if err := sm.hosted.check("hosted", sm.curRow); err != nil {
		return err
	}
	if err := sm.best.check("best", sm.bestRow); err != nil {
		return err
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
	sh := sm.shapeOf(c)
	hostID := sm.hostID(c)
	var out []Placement
	for gi := range sh.groups {
		g := &sh.groups[gi]
		p := sm.groupValue(g, c)
		if p <= 0 {
			continue
		}
		for _, id := range g.members {
			if id != hostID {
				out = append(out, Placement{PM: sm.cand.pms[id], Probability: p})
			}
		}
	}
	return rankPlacements(out, k)
}

// alternatives is the sparse twin of Matrix.ColumnAlternatives: the
// column shortlist with each probability normalized by the current
// placement, collapsing to the single tracked rescue row with +Inf gain
// when the current placement has probability 0 — the same PMs and
// bit-equal gains as the dense column scan.
func (sm *SparseMatrix) alternatives(c, k int) []Placement {
	if alts, ok := sm.rescue(c, sm.pms); ok {
		return alts
	}
	out := sm.ColumnShortlist(c, k)
	for i := range out {
		out[i].Probability /= sm.curProb[c]
	}
	return out
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
	return ctx.candidates().shortlist(nil, vm, k), true
}
