package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
)

// Matrix is the VM/PM mapping probability matrix of Eq. 1: M rows (active
// PMs) by N columns (migratable VMs), fully materialized. It is the plain,
// strictly serial engine: every probability is stored, the column trackers
// (colTrackers) follow each Apply by refilling the two affected rows, and
// Best is a sequential argmax. It has two standing jobs: the production
// engine for every factor list that is not Canonical (ablations, appended
// factors, opaque user factors), and the cold rebuild the candidate-set
// engine is checked against (SelfAudit, audit.SparseCheck).
type Matrix struct {
	// frame is the pass state shared with the sparse engine: axes, ID
	// table, class/shape ids, p_vir memo, hosted-cell memo, trackers, move.
	frame

	// prog is the compiled factor program: lists with a known factor fill
	// cell by cell through the term program, lists with none through Joint.
	prog program

	// p[r][c] = joint probability of hosting vms[c] on pms[r].
	p [][]float64
}

// altDepth is how many ranked alternatives a DecisionHook receives per
// migration.
const altDepth = 4

// MatrixOptions tunes matrix construction.
type MatrixOptions struct {
	// SelfAudit makes every Apply verify the incrementally maintained
	// state against a cold dense rebuild over the same VMs (a fresh
	// NewMatrixWith): probabilities, column trackers, and the Best
	// extraction must be bit-identical on the dense engine, trackers and
	// Best on the candidate-set engine. A canonical ConsolidateWith pass
	// holds every lazy round to a cold SparseMatrix instead (bound.go's
	// checkRound), and a round that moves that engine to a cold dense
	// rebuild; every pass verifies the columns it took from the roster
	// against a cold collection (roster.go). Expensive (a cold build per
	// round); the simulator enables it in -audit=event mode.
	SelfAudit bool

	// CandidateK selects nothing: the engine follows the factor list
	// (Canonical). It is only the declared ceiling on non-empty score
	// groups per demand shape behind the "core.sparse_shape_overflow"
	// diagnostic — a shape that needs more groups is still scanned
	// exactly, and each column or arrival that meets one is counted on
	// ctx.Obs so a mis-sized fleet model is visible. Zero or less declares
	// no ceiling and counts nothing.
	CandidateK int

	// Workers is the number of goroutines the candidate index's kernels
	// fan out on (parallel.go): the index sync, the first-seen shape pass
	// and a cold SparseMatrix's column scans. The dense Matrix is strictly
	// serial and ignores it. Zero and one are the strictly serial path with
	// its zero-allocation budgets; a count above one is honored verbatim —
	// results are bit-identical at every setting (DESIGN.md §15). Kept only
	// as the seam bench/ drives; ROADMAP item 2 deletes it.
	Workers int

	// DecisionHook, when set, observes every Algorithm 1 migration just
	// before it is applied: the move itself plus the column's ranked
	// non-host alternatives (probability normalized by the column's
	// current placement, so scores are the gains Algorithm 1 compares;
	// the head is the chosen target; depth is at most 4). The lists are
	// exact — ordered (gain desc, PM ID asc) over every positive
	// alternative — and identical on both engines, as are the chosen
	// moves. The lists are computed only when a hook is set.
	// Observation only: the hook must not mutate simulation state.
	DecisionHook func(round int, mv Move, alts []Placement)
}

// NewMatrix builds the probability matrix over the data center's active
// PMs and the given VMs (typically every running VM). Every VM must
// currently be hosted on an active PM. Rows and columns are ordered by ID
// for deterministic tie-breaking.
func NewMatrix(ctx *Context, factors []Factor, vms []*cluster.VM) (*Matrix, error) {
	return NewMatrixWith(ctx, factors, vms, MatrixOptions{})
}

// NewMatrixWith is NewMatrix with explicit options.
func NewMatrixWith(ctx *Context, factors []Factor, vms []*cluster.VM, opts MatrixOptions) (*Matrix, error) {
	return newMatrix(ctx, factors, vms, nil, opts)
}

// newMatrix is NewMatrixWith with the columns' shape ids, when the caller
// has them (frame.init).
func newMatrix(ctx *Context, factors []Factor, vms []*cluster.VM, shapes []int32, opts MatrixOptions) (*Matrix, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("core: matrix needs at least one factor")
	}
	var f frame
	if err := f.init(ctx, factors, vms, shapes, opts); err != nil {
		return nil, err
	}
	scr := f.scr
	m := &scr.dense
	*m = Matrix{frame: f}
	m.prog = compile(scr.terms[:0], factors)
	scr.terms = m.prog.terms

	nr, nc := len(m.pms), len(m.vms)
	grow(&scr.pflat, nr*nc)
	m.p = grow(&scr.prows, nr)
	for r := range m.p {
		m.p[r] = scr.pflat[r*nc : (r+1)*nc : (r+1)*nc]
	}

	for r := range m.pms {
		m.fillRow(r)
	}
	cols := grow(&scr.cols, nc)
	for c := range cols {
		cols[c] = c
	}
	m.refreshColumns(cols)
	return m, nil
}

// fillRow evaluates every cell of row r.
func (m *Matrix) fillRow(r int) {
	pm := m.pms[r]
	row := m.p[r]
	if !m.prog.known {
		for c, vm := range m.vms {
			row[c] = Joint(m.ctx, m.factors, vm, pm, vm.Host == pm.ID)
		}
		return
	}
	ci := int(m.rowClass[r])
	info, vir := m.ctx.classTab[ci], m.vir[ci*len(m.vms):]
	for c, vm := range m.vms {
		row[c] = m.prog.cell(m.ctx, info, vir[c], pm, vm, vm.Host == pm.ID)
	}
}

// P returns the joint probability for (pm row r, vm column c).
func (m *Matrix) P(r, c int) float64 { return m.p[r][c] }

// ColumnAlternatives returns column c's non-host candidates as ranked
// placements, truncated to at most k entries (k <= 0: all): every row with
// a positive probability, ordered (probability desc, row asc), each
// probability normalized by the column's current placement so scores are
// directly comparable to MIG_threshold. When the current placement has
// probability 0 the list collapses to the single tracked rescue row with
// +Inf gain (mirroring Normalized). Returns nil when the column has no
// positive alternative. It is an on-demand O(M) column scan; decision
// recording uses it to capture the top-k rejected alternatives alongside
// each migration.
func (m *Matrix) ColumnAlternatives(c, k int) []Placement {
	if alts, ok := m.rescue(c, m.pms); ok {
		return alts
	}
	var out []Placement
	for r, pm := range m.pms {
		p := m.p[r][c]
		if r == m.curRow[c] || p <= 0 {
			continue
		}
		// Rows ascend, so on equal probabilities the earlier row keeps
		// its slot.
		i := len(out)
		for i > 0 && p > out[i-1].Probability {
			i--
		}
		if k > 0 && i >= k {
			continue
		}
		if k <= 0 || len(out) < k {
			out = append(out, Placement{})
		}
		copy(out[i+1:], out[i:])
		out[i] = Placement{PM: pm, Probability: p}
	}
	for i := range out {
		out[i].Probability /= m.curProb[c]
	}
	return out
}

func (m *Matrix) alternatives(c, k int) []Placement { return m.ColumnAlternatives(c, k) }

// Normalized returns d_rc = p_rc / p_(current host of c), the column-
// normalized value Algorithm 1 compares against MIG_threshold. Values
// above 1 indicate the move improves the mapping; the current host is
// exactly 1. When the current placement has probability 0 (which can
// happen when a VM's remaining estimate has expired and its host became
// unreliable), any feasible alternative is treated as +Inf gain.
func (m *Matrix) Normalized(r, c int) float64 {
	if r == m.curRow[c] {
		return 1
	}
	return m.normalize(m.p[r][c], m.curProb[c])
}

func (m *Matrix) normalize(p, cur float64) float64 {
	if cur <= 0 {
		if p > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return p / cur
}

// refreshColumns recomputes curRow/curProb and the best alternative for
// every listed column from the stored probabilities. Two optimizations over
// a naive per-column rescan:
//
//   - The scan is division-free: for a positive normalizer, p/cur is
//     monotone in p, so the lowest row maximizing the raw probability is
//     the best alternative (max_r round(p_r/cur) = round(max_r p_r/cur),
//     since IEEE rounding is monotone) and one division at the end
//     recovers the gain. A non-positive normalizer means any feasible
//     alternative is a +Inf-gain rescue; the lowest such row wins.
//
//   - The columns are swept together row-major: p is stored by rows, so
//     k separate column scans stride the whole matrix k times, while one
//     joint sweep walks each row once.
func (m *Matrix) refreshColumns(cols []int) {
	for _, c := range cols {
		cr := m.hostRow(c)
		m.curRow[c] = cr
		m.curProb[c] = m.p[cr][c]
		m.bestRow[c] = -1
		m.bestP[c] = 0
	}
	for r := range m.pms {
		row := m.p[r]
		for _, c := range cols {
			// Rows ascend, so strict improvement keeps the lowest
			// maximizing row; a rescue column stops at its first
			// positive row.
			if p := row[c]; p > m.bestP[c] && r != m.curRow[c] &&
				(m.curProb[c] > 0 || m.bestRow[c] < 0) {
				m.bestRow[c], m.bestP[c] = r, p
			}
		}
	}
	for _, c := range cols {
		m.bestGain[c] = normGain(m.bestRow[c], m.bestP[c], m.curProb[c])
	}
}

// recomputeRow re-evaluates every probability in row r and incrementally
// fixes the per-column best trackers. Columns whose normalizer changed
// (this row hosts them, or their VM moved) get a full refresh. Everywhere
// else only row r's value changed: the row takes over a column's best when
// it now beats it, and a full column rescan is forced only when the row
// was the best and dropped. Ties go to the lowest row, exactly what a
// from-scratch refreshColumns computes (the rebuild property test demands
// equality).
func (m *Matrix) recomputeRow(r int) {
	m.fillRow(r)
	pending := m.scr.pending[:0]
	for c, p := range m.p[r] {
		switch {
		case m.curRow[c] == r || m.hostRow(c) != m.curRow[c]:
			pending = append(pending, c)
		case m.bestRow[c] != r:
			if m.beats(c, r, p) {
				m.setBest(c, r, p)
			}
		case p < m.bestP[c] && (p <= 0 || m.curProb[c] > 0):
			// The best dropped (rescue columns: to zero — any positive
			// value keeps the lowest positive row).
			pending = append(pending, c)
		case p != m.bestP[c]:
			m.setBest(c, r, p)
		}
	}
	m.scr.pending = pending
	m.refreshColumns(pending)
}

// Move is one migration decision produced by Algorithm 1.
type Move struct {
	VM   cluster.VMID
	From cluster.PMID
	To   cluster.PMID

	// Gain is the normalized probability ratio d_ij that justified the
	// move (> MIG_threshold).
	Gain float64

	// Round is the 1-based migration round within the consolidation
	// pass.
	Round int
}

// Apply performs the move for column c to row r (frame.move: the
// datacenter state is mutated) and refreshes the two affected rows.
func (m *Matrix) Apply(r, c int) error {
	from, err := m.move(r, c)
	if err != nil {
		return err
	}
	m.recomputeRow(from)
	m.recomputeRow(r)
	if m.opts.SelfAudit {
		if err := m.verifyRebuild(); err != nil {
			return fmt.Errorf("core: self-audit after moving VM %d to PM %d: %w", m.vms[c].ID, m.pms[r].ID, err)
		}
	}
	return nil
}

// SelfCheck re-derives every column tracker from the stored probabilities
// and reports the first divergence. It is the "re-derivable from scratch"
// half of the audit contract: the incremental maintenance in recomputeRow
// must never drift from what a brute-force rescan of m.p computes,
// including tie-breaks (lowest row) and the +Inf rescue rule for zero
// normalizers.
func (m *Matrix) SelfCheck() error {
	for c, vm := range m.vms {
		cr, ok := m.RowOf(vm.Host)
		if !ok {
			return fmt.Errorf("core: column %d (VM %d) hosted on PM %d outside the matrix", c, vm.ID, vm.Host)
		}
		cur := m.p[cr][c]
		if err := m.checkCur(c, cr, cur); err != nil {
			return err
		}
		bestRow, bestP := -1, 0.0
		for r := range m.pms {
			if r == cr {
				continue
			}
			p := m.p[r][c]
			if cur > 0 {
				if p > bestP {
					bestP, bestRow = p, r
				}
			} else if p > 0 && bestRow < 0 {
				bestRow, bestP = r, p
			}
		}
		if err := m.checkBest(c, bestRow, bestP); err != nil {
			return err
		}
	}
	return nil
}

// Diff compares two matrices bit-for-bit: dimensions, row/column
// identities, every probability, the column trackers, and the Best
// extraction. A nil return means the matrices are interchangeable for
// Algorithm 1.
func (m *Matrix) Diff(o *Matrix) error {
	if err := m.diffAxes(&o.frame); err != nil {
		return err
	}
	for r := range m.pms {
		for c := range m.vms {
			if a, b := m.p[r][c], o.p[r][c]; a != b {
				return fmt.Errorf("core: p[%d][%d] = %v vs %v (PM %d, VM %d)",
					r, c, a, b, m.pms[r].ID, m.vms[c].ID)
			}
		}
	}
	return m.colTrackers.diff(&o.colTrackers)
}

// verifyRebuild checks the live matrix against a cold rebuild over the
// same VM set (SelfAudit mode).
func (m *Matrix) verifyRebuild() error {
	opts := m.opts
	opts.SelfAudit = false
	fresh, err := NewMatrixWith(m.ctx, m.factors, m.vms, opts)
	if err != nil {
		return fmt.Errorf("core: rebuild failed: %w", err)
	}
	defer fresh.Release()
	if err := m.SelfCheck(); err != nil {
		return err
	}
	return m.Diff(fresh)
}

// String renders the normalized matrix for debugging, in the layout of the
// paper's worked example (PM rows x VM columns).
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "")
	for _, vm := range m.vms {
		fmt.Fprintf(&b, " VM%-6d", vm.ID)
	}
	b.WriteByte('\n')
	for r, pm := range m.pms {
		fmt.Fprintf(&b, "PM%-6d", pm.ID)
		for c := range m.vms {
			fmt.Fprintf(&b, " %8.4f", m.Normalized(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
