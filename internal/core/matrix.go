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
// PMs) by N columns (migratable VMs), fully materialized and built cold:
// every probability is stored, the column trackers (colTrackers) are
// derived once, Best is a sequential argmax, and nothing updates it — a
// move is a new build. It is the cold reference every run is held to: the
// lazy rounds' (bound.go's checkRound: Context.SelfAudit,
// audit.SparseCheck) and the frozen oracle's (audit.TrackerCheck). It
// evaluates any factor list cell by cell, opaque factors included.
//
// A Matrix is built from the Context's pooled scratch under a checkout
// model (scratch.go) and is valid until Release.
type Matrix struct {
	ctx     *Context
	factors []Factor

	// prog is the compiled factor program every cell is filled through.
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

// MatrixOptions tunes a Dynamic scheme's evaluation. The run's own settings
// (self-audit, decision recording) live on its Context.
type MatrixOptions struct {
	// CandidateK selects nothing: every run evaluates on the candidate
	// index. It is only the declared ceiling on non-empty score
	// groups per demand shape behind the "core.sparse_shape_overflow"
	// diagnostic — a shape that needs more groups is still scanned
	// exactly, and each column or arrival that meets one is counted on
	// ctx.Obs so a mis-sized fleet model is visible. Zero or less declares
	// no ceiling and counts nothing.
	CandidateK int
}

// NewMatrix builds the probability matrix over the data center's active
// PMs and the given VMs (typically every running VM), in any order. Every
// VM must currently be hosted on an active PM and appear once. Rows and
// columns are ordered by ID for deterministic tie-breaking.
func NewMatrix(ctx *Context, factors []Factor, vms []*cluster.VM) (*Matrix, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("core: matrix needs at least one factor")
	}
	if ctx == nil || ctx.DC == nil {
		return nil, fmt.Errorf("core: matrix needs a context with a datacenter")
	}
	scr := ctx.takeScratch()
	m := &scr.dense
	*m = Matrix{ctx: ctx, factors: factors, scr: scr}

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

	m.vms = append(scr.vms[:0], vms...)
	scr.vms = m.vms
	slices.SortFunc(m.vms, func(a, b *cluster.VM) int { return cmp.Compare(a.ID, b.ID) })
	for c, vm := range m.vms {
		if c > 0 && m.vms[c-1].ID == vm.ID {
			m.Release()
			return nil, fmt.Errorf("core: VM %d duplicated in matrix", vm.ID)
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
	m.refreshColumns()
	return m, nil
}

// Release returns the matrix's backing storage to its Context for the next
// build to reuse. The matrix must not be used afterwards. Release is
// optional — an un-released matrix just leaves its storage to the GC, and
// when several matrices over one Context are alive at once only the first
// Release re-attaches.
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

// fillRow evaluates every cell of row r.
func (m *Matrix) fillRow(r int) {
	pm := m.pms[r]
	row := m.p[r]
	ci := int(m.rowClass[r])
	info, vir := m.ctx.classTab[ci], m.vir[ci*len(m.vms):]
	for c, vm := range m.vms {
		row[c] = m.prog.cell(m.ctx, info, vir[c], pm, vm, vm.Host == pm.ID)
	}
}

// P returns the joint probability for (pm row r, vm column c).
func (m *Matrix) P(r, c int) float64 { return m.p[r][c] }

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

// refreshColumns derives curRow/curProb and the best alternative of every
// column from the stored probabilities. Two optimizations over a naive
// per-column scan:
//
//   - The scan is division-free: for a positive normalizer, p/cur is
//     monotone in p, so the lowest row maximizing the raw probability is
//     the best alternative (max_r round(p_r/cur) = round(max_r p_r/cur),
//     since IEEE rounding is monotone) and one division at the end
//     recovers the gain. A non-positive normalizer means any feasible
//     alternative is a +Inf-gain rescue; the lowest such row wins.
//
//   - The columns are swept together row-major: p is stored by rows, so
//     N separate column scans stride the whole matrix N times, while one
//     joint sweep walks each row once.
func (m *Matrix) refreshColumns() {
	for c, vm := range m.vms {
		cr := int(m.id2row[vm.Host]) // NewMatrix checked every host is a row
		m.curRow[c] = cr
		m.curProb[c] = m.p[cr][c]
		m.bestRow[c] = -1
		m.bestP[c] = 0
	}
	for r := range m.pms {
		for c, p := range m.p[r] {
			// Rows ascend, so strict improvement keeps the lowest
			// maximizing row; a rescue column stops at its first
			// positive row.
			if p > m.bestP[c] && r != m.curRow[c] && (m.curProb[c] > 0 || m.bestRow[c] < 0) {
				m.bestRow[c], m.bestP[c] = r, p
			}
		}
	}
	for c := range m.vms {
		m.bestGain[c] = normGain(m.bestRow[c], m.bestP[c], m.curProb[c])
	}
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
