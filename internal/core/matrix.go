package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cluster"
)

// Matrix is the VM/PM mapping probability matrix of Eq. 1: M rows (active
// PMs) by N columns (migratable VMs), fully materialized. It is the plain,
// strictly serial engine: every probability is stored, the column trackers
// (colTrackers) follow each Apply by refilling the two affected rows, and
// Best is a sequential argmax. It has two standing jobs: the production
// engine for every factor list that is not Canonical (ablations, appended
// factors, opaque user factors), and the cold reference the lazy rounds of a
// canonical pass are checked against (bound.go's checkRound: SelfAudit,
// audit.SparseCheck).
//
// A Matrix is built from the Context's pooled scratch under a checkout
// model (scratch.go) and is valid until Release.
type Matrix struct {
	ctx     *Context
	factors []Factor
	opts    MatrixOptions

	// prog is the compiled factor program: lists with a known factor fill
	// cell by cell through the term program, lists with none through Joint.
	prog program

	pms []*cluster.PM // rows: active PMs, ID ascending
	vms []*cluster.VM // columns, ID ascending

	// id2row maps a PM ID to its row, -1 for inactive PMs. PM IDs are
	// dense (cluster.New numbers the fleet 0..M-1), so this is a slice.
	id2row []int32

	rowClass []int32 // per row: id into ctx.classTab

	// vir memoizes the non-host virtualization penalty per class and
	// column: the remaining estimate T_re is fixed for the lifetime of a
	// matrix (the clock does not advance during a pass), so the M*N
	// evaluations of Eq. 3 collapse to C*N. Stored class-major:
	// vir[ci*Cols()+c].
	vir []float64

	// p[r][c] = joint probability of hosting vms[c] on pms[r].
	p [][]float64

	// colTrackers holds, per column, the current placement's normalizer
	// and the best normalized alternative.
	colTrackers

	// scr is the checked-out backing storage behind every slice above and
	// the Matrix value itself; Release returns it to the Context.
	scr *matrixScratch
}

// altDepth is how many ranked alternatives a DecisionHook receives per
// migration.
const altDepth = 4

// MatrixOptions tunes matrix construction.
type MatrixOptions struct {
	// SelfAudit makes every Apply verify the incrementally maintained
	// state against a cold rebuild over the same VMs (a fresh
	// NewMatrixWith): probabilities, column trackers, and the Best
	// extraction must be bit-identical. A canonical ConsolidateWith pass,
	// which builds no engine, holds every lazy round to a cold dense Matrix
	// instead (bound.go's checkRound: the index's structure, each column's
	// group scan, the sweep's bounds and the choice); every pass verifies
	// the roster it read against a cold rebuild (roster.go). Expensive (a
	// cold build per round); the simulator enables it in -audit=event mode.
	SelfAudit bool

	// CandidateK selects nothing: the engine follows the factor list
	// (Canonical). It is only the declared ceiling on non-empty score
	// groups per demand shape behind the "core.sparse_shape_overflow"
	// diagnostic — a shape that needs more groups is still scanned
	// exactly, and each column or arrival that meets one is counted on
	// ctx.Obs so a mis-sized fleet model is visible. Zero or less declares
	// no ceiling and counts nothing.
	CandidateK int

	// Workers is the number of goroutines the candidate index fans its
	// first-seen shape pass out on (parallel.go); the dense Matrix
	// is strictly serial and ignores it. Zero and one are the strictly
	// serial path with its zero-allocation budgets; a count above one is
	// honored verbatim — results are bit-identical at every setting
	// (DESIGN.md §15). Kept only as the seam bench/ drives; ROADMAP item 2
	// deletes it.
	Workers int

	// DecisionHook, when set, observes every Algorithm 1 migration just
	// before it is applied: the move itself plus the column's ranked
	// non-host alternatives (probability normalized by the column's
	// current placement, so scores are the gains Algorithm 1 compares;
	// the head is the chosen target; depth is at most 4). The lists are
	// exact — ordered (gain desc, PM ID asc) over every positive
	// alternative — and identical on the lazy rounds and the dense Matrix,
	// as are the chosen moves. The lists are computed only when a hook is set.
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
	return newMatrix(ctx, factors, vms, false, opts)
}

// newMatrix is NewMatrixWith over columns that, when sorted is set, already
// ascend by ID (ctx.columns) and are used as given, valid as long as the
// matrix; otherwise the caller is a constructor with a list in any order,
// which is copied and sorted here. Every VM must currently be hosted on an
// active PM and appear once.
func newMatrix(ctx *Context, factors []Factor, vms []*cluster.VM, sorted bool, opts MatrixOptions) (*Matrix, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("core: matrix needs at least one factor")
	}
	if ctx == nil || ctx.DC == nil {
		return nil, fmt.Errorf("core: matrix needs a context with a datacenter")
	}
	scr := ctx.takeScratch()
	m := &scr.dense
	*m = Matrix{ctx: ctx, factors: factors, opts: opts, scr: scr}

	// The datacenter lists PMs by ID, so the rows ascend as collected.
	m.id2row = grow(&scr.id2row, ctx.DC.Size())
	for i := range m.id2row {
		m.id2row[i] = -1
	}
	m.pms = ctx.DC.AppendActivePMs(scr.pms[:0])
	scr.pms = m.pms
	m.rowClass = grow(&scr.rowClass, len(m.pms))
	for r, pm := range m.pms {
		m.id2row[pm.ID] = int32(r)
		m.rowClass[r] = ctx.classID(pm)
	}

	m.vms = vms
	if !sorted {
		m.vms = append(scr.vms[:0], vms...)
		scr.vms = m.vms
		slices.SortFunc(m.vms, func(a, b *cluster.VM) int { return cmp.Compare(a.ID, b.ID) })
	}
	for c, vm := range m.vms {
		if c > 0 && m.vms[c-1].ID >= vm.ID {
			m.Release()
			return nil, fmt.Errorf("core: VM %d duplicated or out of ID order in matrix", vm.ID)
		}
		if _, ok := m.RowOf(vm.Host); !ok {
			m.Release()
			return nil, fmt.Errorf("core: VM %d hosted on inactive PM %d", vm.ID, vm.Host)
		}
	}

	nr, nc := len(m.pms), len(m.vms)
	m.vir = grow(&scr.vir, len(ctx.classTab)*nc)
	for c, vm := range m.vms {
		tre := vm.RemainingEstimate(ctx.Now)
		for ci, info := range ctx.classTab {
			m.vir[ci*nc+c] = virProbability(tre, info.overhead)
		}
	}
	scr.trk.resize(nc)
	m.colTrackers = scr.trk

	m.prog = compile(scr.terms[:0], factors)
	scr.terms = m.prog.terms
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

// Release returns the matrix's backing storage to its Context for the next
// build to reuse. The matrix must not be used afterwards. Release is
// optional — an un-released matrix just leaves its storage to the GC, and
// when several matrices over one Context are alive at once (SelfAudit's
// cold rebuilds) only the first Release re-attaches.
func (m *Matrix) Release() {
	scr := m.scr
	m.scr = nil
	if scr != nil && m.ctx.fscratch == nil {
		m.ctx.fscratch = scr
	}
}

// Rows and Cols report the dimensions.
func (m *Matrix) Rows() int { return len(m.pms) }

// Cols reports the number of VM columns.
func (m *Matrix) Cols() int { return len(m.vms) }

// PM returns the physical machine at row r.
func (m *Matrix) PM(r int) *cluster.PM { return m.pms[r] }

// VM returns the virtual machine at column c.
func (m *Matrix) VM(c int) *cluster.VM { return m.vms[c] }

// RowOf returns the row index of the PM with the given ID.
func (m *Matrix) RowOf(id cluster.PMID) (int, bool) {
	if id < 0 || int(id) >= len(m.id2row) || m.id2row[id] < 0 {
		return -1, false
	}
	return int(m.id2row[id]), true
}

// hostRow returns the row currently hosting column c's VM.
func (m *Matrix) hostRow(c int) int {
	vm := m.vms[c]
	r, ok := m.RowOf(vm.Host)
	if !ok {
		panic(fmt.Sprintf("core: VM %d host %d left the matrix", vm.ID, vm.Host))
	}
	return r
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

// Apply migrates column c's VM to row r (migrate: the datacenter state is
// mutated) and refreshes the two affected rows.
func (m *Matrix) Apply(r, c int) error {
	from := m.curRow[c]
	if err := migrate(m.vms[c], m.pms[from], m.pms[r]); err != nil {
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
	if len(m.pms) != len(o.pms) || len(m.vms) != len(o.vms) {
		return fmt.Errorf("core: matrix %dx%d != %dx%d", len(m.pms), len(m.vms), len(o.pms), len(o.vms))
	}
	for r := range m.pms {
		if m.pms[r].ID != o.pms[r].ID {
			return fmt.Errorf("core: row %d is PM %d vs PM %d", r, m.pms[r].ID, o.pms[r].ID)
		}
	}
	for c := range m.vms {
		if m.vms[c].ID != o.vms[c].ID {
			return fmt.Errorf("core: column %d is VM %d vs VM %d", c, m.vms[c].ID, o.vms[c].ID)
		}
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
