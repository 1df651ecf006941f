package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
)

// SparseMatrix is the candidate-set consolidation engine behind
// MatrixOptions.CandidateK: it maintains the same per-column trackers as
// the dense Matrix — current-placement normalizer, best alternative row,
// best gain — but derives them from the Context's candidate index
// (candidates.go) instead of a materialized M x N probability matrix.
// Column scans touch one score group per distinct (class, level,
// reliability) signature rather than one row per PM, and an Apply
// re-derives only the two migration endpoints plus the columns their
// membership events can actually affect.
//
// Every decision is bit-identical to the dense engine by construction:
// group values are evaluated in cellDefault's multiplication order on
// bit-identical operands, ties resolve to the lowest member ID (dense's
// ID-ordered strict-greater scan), and the column trackers and Best are the
// dense engine's own (colTrackers). The contract is enforced three ways —
// DiffDense against a dense build (the auditor's SparseCheck), the
// per-Apply SelfAudit rebuild, and the differential fuzz harness in
// internal/audit.
type SparseMatrix struct {
	ctx     *Context
	factors []Factor
	opts    MatrixOptions
	cand    *candIndex

	pms []*cluster.PM // active rows, ID ascending (dense row order)
	vms []*cluster.VM // columns, ID ascending

	rowOf  map[cluster.PMID]int
	id2row []int32 // PM ID -> row index, -1 for inactive PMs

	colShape  []*candShape
	shapeIdx  map[*candShape]int
	shapeCols [][]int32 // columns per distinct shape, for targeted updates

	// colTrackers is the per-column state shared with Matrix: the current
	// placement's normalizer and the best non-host alternative under the
	// dense tie-break.
	colTrackers
	colSeq []uint64 // Apply seq that last re-derived the column in full

	// Reverse indices so Apply can enumerate exactly the columns a move
	// invalidates instead of scanning all N: hostCols[r] lists columns
	// hosted on row r (maintained by refreshColumn), bestCols[r] the
	// columns whose cached best is row r (maintained by setBest). hostPos
	// and bestPos are each column's slot in its list, -1 when absent.
	hostCols [][]int32
	bestCols [][]int32
	hostPos  []int32
	bestPos  []int32

	// vir memoizes the non-host virtualization penalty per (class index
	// of the candidate index, column), like the dense kernel's slab.
	vir []float64

	// effH lazily memoizes the hosted-cell efficiency term per row
	// (NaN = unset); invalidated for the two endpoints of each Apply.
	effH []float64

	// seq numbers Applies; candShape.seq/evFrom/evTo are valid for the
	// current Apply only when they carry this value.
	seq uint64
}

// canonicalDefault reports whether factors are exactly the paper's four in
// canonical order — the only program the candidate index can factor.
func canonicalDefault(factors []Factor) bool {
	if len(factors) != 4 {
		return false
	}
	_, ok0 := factors[0].(ResourceFactor)
	_, ok1 := factors[1].(VirtualizationFactor)
	_, ok2 := factors[2].(ReliabilityFactor)
	_, ok3 := factors[3].(EfficiencyFactor)
	return ok0 && ok1 && ok2 && ok3
}

// NewSparseMatrix builds the sparse engine over the data center's active
// PMs and the given VMs. It requires the canonical default factor program
// (canonicalDefault — anything else errors, the consolidation entry point
// falls back to dense before getting here); the same VM-set preconditions
// as NewMatrixWith apply (no duplicates, every VM hosted on an active PM).
func NewSparseMatrix(ctx *Context, factors []Factor, vms []*cluster.VM, opts MatrixOptions) (*SparseMatrix, error) {
	if ctx == nil || ctx.DC == nil {
		return nil, fmt.Errorf("core: sparse matrix needs a context with a datacenter")
	}
	if !canonicalDefault(factors) {
		return nil, fmt.Errorf("core: sparse matrix requires the canonical default factors")
	}
	sm := &SparseMatrix{
		ctx:     ctx,
		factors: factors,
		opts:    opts,
		cand:    ctx.candidatesWith(opts.Workers),
		rowOf:   make(map[cluster.PMID]int, 64),
	}
	sm.pms = ctx.DC.AppendActivePMs(nil)
	slices.SortFunc(sm.pms, func(a, b *cluster.PM) int { return int(a.ID) - int(b.ID) })
	sm.id2row = make([]int32, len(sm.cand.pms))
	for i := range sm.id2row {
		sm.id2row[i] = -1
	}
	for r, pm := range sm.pms {
		sm.rowOf[pm.ID] = r
		sm.id2row[pm.ID] = int32(r)
	}

	sm.vms = append([]*cluster.VM(nil), vms...)
	slices.SortFunc(sm.vms, func(a, b *cluster.VM) int { return int(a.ID) - int(b.ID) })
	seen := make(map[cluster.VMID]struct{}, len(sm.vms))
	for _, vm := range sm.vms {
		if _, dup := seen[vm.ID]; dup {
			return nil, fmt.Errorf("core: duplicate VM %d in matrix", vm.ID)
		}
		seen[vm.ID] = struct{}{}
		if _, ok := sm.rowOf[vm.Host]; !ok {
			return nil, fmt.Errorf("core: VM %d hosted on inactive PM %d", vm.ID, vm.Host)
		}
	}

	nc := len(sm.vms)
	sm.colShape = make([]*candShape, nc)
	sm.shapeIdx = make(map[*candShape]int, 16)
	for c, vm := range sm.vms {
		sh := sm.cand.shapeFor(vm.Demand)
		sm.colShape[c] = sh
		si, ok := sm.shapeIdx[sh]
		if !ok {
			si = len(sm.shapeCols)
			sm.shapeIdx[sh] = si
			sm.shapeCols = append(sm.shapeCols, nil)
		}
		sm.shapeCols[si] = append(sm.shapeCols[si], int32(c))
		if sh.nonEmpty > opts.CandidateK {
			ctx.Obs.AddScoped("core.sparse_shape_overflow", 1)
		}
	}

	// Non-host virtualization memo per (candidate-index class, column):
	// the same virProbability on the same operands as the dense kernel's
	// per-(column, class) slab, so values are bit-identical. Register
	// every fleet class first — membership only registers a class once
	// one of its PMs is feasible for some shape, and a class surfacing
	// mid-consolidation must not index past the slab.
	for _, pm := range sm.cand.pms {
		sm.cand.classFor(pm)
	}
	sm.vir = make([]float64, len(sm.cand.classes)*nc)
	for c, vm := range sm.vms {
		tre := vm.RemainingEstimate(ctx.Now)
		for ci, cc := range sm.cand.classes {
			overhead := cc.info.overhead
			if vm.Host == cluster.NoPM {
				overhead = cc.class.CreationTime
			}
			sm.vir[ci*nc+c] = virProbability(tre, overhead)
		}
	}

	sm.resize(nc)
	sm.colSeq = make([]uint64, nc)
	sm.hostCols = make([][]int32, len(sm.pms))
	sm.bestCols = make([][]int32, len(sm.pms))
	sm.hostPos = make([]int32, nc)
	sm.bestPos = make([]int32, nc)
	for c := range sm.vms {
		sm.curRow[c] = -1
		sm.bestRow[c] = -1
		sm.hostPos[c] = -1
		sm.bestPos[c] = -1
	}
	sm.effH = make([]float64, len(sm.pms))
	for r := range sm.effH {
		sm.effH[r] = math.NaN()
	}
	sm.initialSync()
	return sm, nil
}

// sparseParallelThreshold is the column count below which auto-sized
// sparse kernels (Workers == 0) stay serial; explicit worker counts
// bypass it. Variable so tests and benchmarks can force both paths.
var sparseParallelThreshold = 4096

// sparseWorkers resolves the worker count for a sparse kernel over n
// units; the caller must ReturnWorkers the borrowed tokens.
func (sm *SparseMatrix) sparseWorkers(n int) (workers, borrowed int) {
	if sm.opts.Workers == 0 && n < sparseParallelThreshold {
		return 1, 0
	}
	return claimWorkers(sm.opts.Workers, n)
}

// initialSync derives every column's trackers for the first time. The
// serial path is one refreshColumn per column; above the threshold the
// scan phase shards across workers in column spans — each column's
// normalizer, best alternative, and gain land in that column's own slots,
// with the per-row efficiency memo prewarmed so hostProb is read-only —
// and the shared reverse indices are then installed serially in column
// order, reproducing the serial loop's exact append order. Both paths are
// bit-identical: per-column values come from the same scanColumn code on
// the same operands.
func (sm *SparseMatrix) initialSync() {
	nc := len(sm.vms)
	workers, borrowed := sm.sparseWorkers(nc)
	defer ReturnWorkers(borrowed)
	if workers <= 1 {
		for c := range sm.vms {
			sm.refreshColumn(c)
		}
		return
	}
	for r := range sm.pms {
		sm.hostProb(r) // prewarm the effH memo: read-only below
	}
	runSpans(workers, nc, spanChunk(nc, workers), func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			vm := sm.vms[c]
			h := int(vm.Host)
			if h < 0 || h >= len(sm.id2row) || sm.id2row[h] < 0 {
				panic(fmt.Sprintf("core: VM %d host %d left the matrix", vm.ID, vm.Host))
			}
			row := int(sm.id2row[h])
			sm.curRow[c] = row
			sm.curProb[c] = sm.hostProb(row)
			bestRow, bestP := sm.scanColumn(c)
			sm.colTrackers.setBest(c, bestRow, bestP)
		}
	})
	for c := range sm.vms {
		r := sm.curRow[c]
		sm.hostPos[c] = int32(len(sm.hostCols[r]))
		sm.hostCols[r] = append(sm.hostCols[r], int32(c))
		if br := sm.bestRow[c]; br >= 0 {
			sm.bestPos[c] = int32(len(sm.bestCols[br]))
			sm.bestCols[br] = append(sm.bestCols[br], int32(c))
		}
	}
}

// Rows and Cols report the engine's dimensions, mirroring Matrix.
func (sm *SparseMatrix) Rows() int { return len(sm.pms) }

// Cols reports the number of VM columns.
func (sm *SparseMatrix) Cols() int { return len(sm.vms) }

// PM returns the physical machine at row r.
func (sm *SparseMatrix) PM(r int) *cluster.PM { return sm.pms[r] }

// VM returns the virtual machine at column c.
func (sm *SparseMatrix) VM(c int) *cluster.VM { return sm.vms[c] }

// hostProb returns the hosted-cell probability for row r, in cellDefault's
// exact form: reliability times the hosted efficiency term, memoized per
// row.
func (sm *SparseMatrix) hostProb(r int) float64 {
	pm := sm.pms[r]
	rel := pm.Reliability
	if rel == 0 {
		return 0
	}
	if math.IsNaN(sm.effH[r]) {
		sm.effH[r] = effProbability(sm.ctx.classInfoFor(pm), pm.Utilization())
	}
	return rel * sm.effH[r]
}

// refreshColumn re-derives column c's trackers from scratch: the current
// placement normalizer and a scan over the shape's score groups.
func (sm *SparseMatrix) refreshColumn(c int) {
	vm := sm.vms[c]
	// id2row instead of the rowOf map: this lookup runs once per repaired
	// column per Apply and the map hash dominated the repair profile.
	h := int(vm.Host)
	if h < 0 || h >= len(sm.id2row) || sm.id2row[h] < 0 {
		panic(fmt.Sprintf("core: VM %d host %d left the matrix", vm.ID, vm.Host))
	}
	row := int(sm.id2row[h])
	sm.colSeq[c] = sm.seq
	if old := sm.curRow[c]; old != row {
		sm.listMove(sm.hostCols, sm.hostPos, c, old, row)
		sm.curRow[c] = row
	}
	sm.curProb[c] = sm.hostProb(row)
	bestRow, bestP := sm.scanColumn(c)
	sm.setBest(c, bestRow, bestP)
}

// scanColumn computes column c's best non-host alternative over the
// shape's score groups: the lowest-ID feasible PM maximizing the raw
// probability when the normalizer is positive, or the lowest-ID PM with
// any positive probability for a +Inf rescue column — exactly the dense
// refreshColumns rules.
func (sm *SparseMatrix) scanColumn(c int) (bestRow int, bestP float64) {
	sh := sm.colShape[c]
	hostID := int32(sm.pms[sm.curRow[c]].ID)
	cur := sm.curProb[c]
	nc := len(sm.vms)
	bestID := int32(-1)
	for gi := range sh.groups {
		g := &sh.groups[gi]
		m := g.members
		if len(m) == 0 {
			continue
		}
		cand := m[0]
		if cand == hostID {
			if len(m) < 2 {
				continue
			}
			cand = m[1]
		}
		p := sm.vir[int(g.key.ci)*nc+c]
		if p == 0 {
			continue
		}
		p *= g.rel
		if p == 0 {
			continue
		}
		p = p * g.effVal
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

// listMove relocates column c from lists[from] to lists[to] (either may be
// -1 for absent), swap-removing and keeping pos — each column's slot in its
// current list — consistent.
func (sm *SparseMatrix) listMove(lists [][]int32, pos []int32, c, from, to int) {
	if from >= 0 {
		cols := lists[from]
		i := pos[c]
		last := int32(len(cols) - 1)
		moved := cols[last]
		cols[i] = moved
		pos[moved] = i
		lists[from] = cols[:last]
	}
	if to >= 0 {
		pos[c] = int32(len(lists[to]))
		lists[to] = append(lists[to], int32(c))
	} else {
		pos[c] = -1
	}
}

// setBest installs a freshly computed (bestRow, bestP) pair and the
// derived gain for column c, keeping the bestCols reverse index in step.
func (sm *SparseMatrix) setBest(c, bestRow int, bestP float64) {
	if old := sm.bestRow[c]; old != bestRow {
		sm.listMove(sm.bestCols, sm.bestPos, c, old, bestRow)
	}
	sm.colTrackers.setBest(c, bestRow, bestP)
}

// Apply performs the move for column c to row r and incrementally repairs
// the trackers. The fleet is mutated exactly as Matrix.Apply mutates it;
// the repair re-derives only the two endpoint PMs' group memberships and
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
	vm := sm.vms[c]
	from := sm.pms[sm.curRow[c]]
	to := sm.pms[r]
	if err := from.Evict(vm); err != nil {
		return fmt.Errorf("core: apply move of VM %d: %w", vm.ID, err)
	}
	if err := to.Host(vm); err != nil {
		if rbErr := from.Host(vm); rbErr != nil {
			panic(fmt.Sprintf("core: rollback failed after host error (%v): %v", err, rbErr))
		}
		return fmt.Errorf("core: apply move of VM %d: %w", vm.ID, err)
	}
	vm.Migrations++

	rF, rT := sm.curRow[c], r
	sm.seq++
	x := sm.cand
	x.events = x.events[:0]
	x.syncPM(int32(from.ID))
	x.syncPM(int32(to.ID))
	sm.effH[rF] = math.NaN()
	sm.effH[rT] = math.NaN()

	for i := range x.events {
		ev := &x.events[i]
		sh := ev.shape
		if sh.seq != sm.seq {
			sh.seq = sm.seq
			sh.evFrom, sh.evTo = false, false
		}
		if ev.pm == int32(from.ID) {
			sh.evFrom = true
		} else {
			sh.evTo = true
		}
	}

	// Targeted repair via the reverse indices. Each loop tolerates the
	// swap-removals its own refreshes perform on the list it is walking:
	// when the element at slot i changes, the slot is re-tested; colSeq
	// bounds every column to one re-derivation per Apply, so both loops
	// terminate. The moved column itself sits in hostCols[rF] until its
	// refresh re-homes it.
	for _, r2 := range [2]int{rF, rT} {
		for i := 0; i < len(sm.hostCols[r2]); {
			c2 := int(sm.hostCols[r2][i])
			if sm.colSeq[c2] != sm.seq {
				sm.refreshColumn(c2)
				if i < len(sm.hostCols[r2]) && int(sm.hostCols[r2][i]) != c2 {
					continue
				}
			}
			i++
		}
	}
	for _, e := range [2]struct {
		row  int
		from bool
	}{{rF, true}, {rT, false}} {
		for i := 0; i < len(sm.bestCols[e.row]); {
			c2 := int(sm.bestCols[e.row][i])
			sh := sm.colShape[c2]
			if sm.colSeq[c2] != sm.seq && sh.seq == sm.seq &&
				((e.from && sh.evFrom) || (!e.from && sh.evTo)) {
				sm.refreshColumn(c2)
				if i < len(sm.bestCols[e.row]) && int(sm.bestCols[e.row][i]) != c2 {
					continue
				}
			}
			i++
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
		// The index may track shapes no column here uses (interned by
		// arrival placements); their events cannot affect this matrix.
		si, ok := sm.shapeIdx[ev.shape]
		if !ok {
			continue
		}
		sm.joinUpdate(si, g)
	}

	if sm.opts.SelfAudit {
		if err := sm.verifyDense(); err != nil {
			return fmt.Errorf("core: sparse self-audit after moving VM %d to PM %d: %w", vm.ID, to.ID, err)
		}
	}
	return nil
}

// joinUpdate tests one group — whose candidate member just changed — as an
// improved best against every column of its shape. Columns already exactly
// re-derived this Apply are unaffected: for them the group's value is
// already dominated by the tracker, so the strict-improvement test is a
// no-op.
func (sm *SparseMatrix) joinUpdate(si int, g *candGroup) {
	nc := len(sm.vms)
	for _, c32 := range sm.shapeCols[si] {
		c := int(c32)
		// A column re-derived this Apply is exact: scanColumn already
		// covered every standing group, so strict improvement is
		// impossible and the test below would be a guaranteed no-op.
		if sm.colSeq[c] == sm.seq {
			continue
		}
		hostID := int32(sm.pms[sm.curRow[c]].ID)
		cand := g.members[0]
		if cand == hostID {
			if len(g.members) < 2 {
				continue
			}
			cand = g.members[1]
		}
		p := sm.vir[int(g.key.ci)*nc+c]
		if p == 0 {
			continue
		}
		p *= g.rel
		if p == 0 {
			continue
		}
		p = p * g.effVal
		if candRow := int(sm.id2row[cand]); sm.beats(c, candRow, p) {
			sm.setBest(c, candRow, p)
		}
	}
}

// SelfCheck re-derives every column tracker from a fresh group scan and
// validates the reverse indices and the candidate index's internal
// structure, reporting the first divergence — the incremental Apply repair must never
// drift from a from-scratch derivation.
func (sm *SparseMatrix) SelfCheck() error {
	for c, vm := range sm.vms {
		row, ok := sm.rowOf[vm.Host]
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
	nBest := 0
	for c := range sm.vms {
		r := sm.curRow[c]
		if i := sm.hostPos[c]; i < 0 || int(i) >= len(sm.hostCols[r]) || sm.hostCols[r][i] != int32(c) {
			return fmt.Errorf("core: column %d missing from hostCols[%d]", c, r)
		}
		if r := sm.bestRow[c]; r >= 0 {
			nBest++
			if i := sm.bestPos[c]; i < 0 || int(i) >= len(sm.bestCols[r]) || sm.bestCols[r][i] != int32(c) {
				return fmt.Errorf("core: column %d missing from bestCols[%d]", c, r)
			}
		} else if sm.bestPos[c] != -1 {
			return fmt.Errorf("core: column %d has no best row but bestPos %d", c, sm.bestPos[c])
		}
	}
	nHost, nBestListed := 0, 0
	for r := range sm.pms {
		nHost += len(sm.hostCols[r])
		nBestListed += len(sm.bestCols[r])
	}
	if nHost != len(sm.vms) || nBestListed != nBest {
		return fmt.Errorf("core: reverse index sizes (host %d, best %d) != (%d, %d)",
			nHost, nBestListed, len(sm.vms), nBest)
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
func (sm *SparseMatrix) DiffDense(o *Matrix) error {
	if err := diffAxes(sm.pms, o.pms, sm.vms, o.vms); err != nil {
		return err
	}
	return sm.colTrackers.diff(&o.colTrackers)
}

// DiffSparse compares two sparse engines tracker-for-tracker: dimensions,
// row/column identities, normalizers, best alternatives, and the Best
// extraction must all be bit-identical. It is the equivalence gate behind
// the parallel-kernel tests, which compare sparse builds at different
// worker counts.
func (sm *SparseMatrix) DiffSparse(o *SparseMatrix) error {
	if err := diffAxes(sm.pms, o.pms, sm.vms, o.vms); err != nil {
		return err
	}
	return sm.colTrackers.diff(&o.colTrackers)
}

// verifyDense checks the live sparse state against a cold dense build over
// the same VM set (SelfAudit mode), plus the from-scratch self check.
func (sm *SparseMatrix) verifyDense() error {
	opts := sm.opts
	opts.SelfAudit = false
	opts.CandidateK = 0
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
	sh := sm.colShape[c]
	hostID := int32(sm.pms[sm.curRow[c]].ID)
	nc := len(sm.vms)
	var out []Placement
	for gi := range sh.groups {
		g := &sh.groups[gi]
		if len(g.members) == 0 {
			continue
		}
		p := sm.vir[int(g.key.ci)*nc+c]
		if p == 0 {
			continue
		}
		p *= g.rel
		if p == 0 {
			continue
		}
		p = p * g.effVal
		if p <= 0 {
			continue
		}
		for _, id := range g.members {
			if id == hostID {
				continue
			}
			out = append(out, Placement{PM: sm.cand.pms[id], Probability: p})
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Probability > b.Probability ||
				(a.Probability == b.Probability && a.PM.ID < b.PM.ID) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
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

// BestPlacementWith is BestPlacement with explicit matrix options: with
// CandidateK > 0 and the canonical factor program the argmax comes from
// the candidate index (bit-identical to the dense scan by construction);
// anything else falls through to the dense path.
func BestPlacementWith(ctx *Context, factors []Factor, vm *cluster.VM, opts MatrixOptions) *cluster.PM {
	if opts.CandidateK > 0 && canonicalDefault(factors) {
		defer ctx.Obs.Phase("arrival_place").Time()()
		return ctx.candidatesWith(opts.Workers).bestArrival(vm, opts.CandidateK)
	}
	return BestPlacement(ctx, factors, vm)
}

// ArrivalShortlist returns the sparse top-k shortlist for placing vm —
// RankPlacements' exact ordering truncated to k — and ok = true when the
// candidate index covers the factor program. Callers outside the tests
// want BestPlacementWith; this exists so the shortlist-containment
// property is checkable from outside the package.
func ArrivalShortlist(ctx *Context, factors []Factor, vm *cluster.VM, k int) ([]Placement, bool) {
	if !canonicalDefault(factors) {
		return nil, false
	}
	return ctx.candidates().shortlist(nil, vm, k), true
}
