// Package oracle freezes the pre-kernel probability-matrix implementation
// as an executable reference for differential checking. Every cell is
// evaluated through the generic Factor interface, per-column tracker
// refreshes pay a division per row, and Best is a linear scan over all
// columns — exactly the code that shipped before the factored kernel
// (PR 1), kept as a package so the audit subsystem and the metamorphic
// tests can import it.
//
// The point of this package is to stay naive. Its simplicity is the
// argument for its correctness: no memoization, no incremental tracker
// surgery. When internal/core's kernel and this oracle disagree
// on a single bit, the optimized path is presumed wrong. Do not "improve"
// this code; any change must be justified as a semantics fix and mirrored
// by the equivalence tests in internal/audit.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Matrix is the naive M x N probability matrix: rows are active PMs, in ID
// order, columns the given VMs, in ID order.
type Matrix struct {
	ctx     *core.Context
	factors []core.Factor

	pms []*cluster.PM
	vms []*cluster.VM

	rowOf map[cluster.PMID]int

	p [][]float64

	curRow  []int
	curProb []float64

	bestRow  []int
	bestGain []float64
}

// NewMatrix builds the reference matrix over the data center's active PMs
// and the given VMs. Like core.NewMatrix it requires every VM to be hosted
// on an active PM.
func NewMatrix(ctx *core.Context, factors []core.Factor, vms []*cluster.VM) (*Matrix, error) {
	if ctx == nil || ctx.DC == nil {
		return nil, fmt.Errorf("oracle: matrix needs a context with a datacenter")
	}
	if len(factors) == 0 {
		return nil, fmt.Errorf("oracle: matrix needs at least one factor")
	}
	m := &Matrix{
		ctx:     ctx,
		factors: factors,
		pms:     ctx.DC.ActivePMs(),
		rowOf:   make(map[cluster.PMID]int),
	}
	sort.Slice(m.pms, func(i, j int) bool { return m.pms[i].ID < m.pms[j].ID })
	for r, pm := range m.pms {
		m.rowOf[pm.ID] = r
	}
	m.vms = append(m.vms, vms...)
	sort.Slice(m.vms, func(i, j int) bool { return m.vms[i].ID < m.vms[j].ID })
	for _, vm := range m.vms {
		if _, ok := m.rowOf[vm.Host]; !ok {
			return nil, fmt.Errorf("oracle: VM %d hosted on inactive PM %d", vm.ID, vm.Host)
		}
	}

	m.p = make([][]float64, len(m.pms))
	for r := range m.p {
		m.p[r] = make([]float64, len(m.vms))
	}
	m.curRow = make([]int, len(m.vms))
	m.curProb = make([]float64, len(m.vms))
	m.bestRow = make([]int, len(m.vms))
	m.bestGain = make([]float64, len(m.vms))

	for r, pm := range m.pms {
		for c, vm := range m.vms {
			m.p[r][c] = core.Joint(m.ctx, m.factors, vm, pm, vm.Host == pm.ID)
		}
	}
	for c := range m.vms {
		m.refreshColumn(c)
	}
	return m, nil
}

// Rows returns the number of PM rows.
func (m *Matrix) Rows() int { return len(m.pms) }

// Cols returns the number of VM columns.
func (m *Matrix) Cols() int { return len(m.vms) }

// P returns the joint probability for (pm row r, vm column c).
func (m *Matrix) P(r, c int) float64 { return m.p[r][c] }

// PM returns the physical machine at row r.
func (m *Matrix) PM(r int) *cluster.PM { return m.pms[r] }

// VM returns the virtual machine at column c.
func (m *Matrix) VM(c int) *cluster.VM { return m.vms[c] }

// CurRow returns the row index of column c's current host.
func (m *Matrix) CurRow(c int) int { return m.curRow[c] }

// CurProb returns the column normalizer: the joint probability of column
// c's current placement.
func (m *Matrix) CurProb(c int) float64 { return m.curProb[c] }

// BestAlt returns the tracked best non-host row of column c and its
// normalized gain, or (-1, 0) when no alternative has positive gain.
func (m *Matrix) BestAlt(c int) (row int, gain float64) {
	return m.bestRow[c], m.bestGain[c]
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

func (m *Matrix) refreshColumn(c int) {
	vm := m.vms[c]
	cr := m.rowOf[vm.Host]
	m.curRow[c] = cr
	m.curProb[c] = m.p[cr][c]

	bestRow, bestGain := -1, 0.0
	for r := range m.pms {
		if r == cr {
			continue
		}
		if g := m.normalize(m.p[r][c], m.curProb[c]); g > bestGain {
			bestGain, bestRow = g, r
		}
	}
	m.bestRow[c] = bestRow
	m.bestGain[c] = bestGain
}

// RecomputeRow re-evaluates row r and re-derives every column's trackers
// from scratch: a naive reference carries no incremental tracker logic.
func (m *Matrix) RecomputeRow(r int) {
	pm := m.pms[r]
	for c, vm := range m.vms {
		m.p[r][c] = core.Joint(m.ctx, m.factors, vm, pm, vm.Host == pm.ID)
	}
	for c := range m.vms {
		m.refreshColumn(c)
	}
}

// Best returns the globally maximal normalized gain and its (row, col) by
// linear scan, or ok = false when no column has a positive-gain
// alternative. Tie-breaking matches core.Matrix.Best: lowest column, then
// lowest row (the tracked row is already the lowest qualifying one).
func (m *Matrix) Best() (r, c int, gain float64, ok bool) {
	r, c, gain = -1, -1, 0
	for col := range m.vms {
		g := m.bestGain[col]
		if m.bestRow[col] < 0 {
			continue
		}
		if g > gain {
			gain, r, c, ok = g, m.bestRow[col], col, true
		}
	}
	return r, c, gain, ok
}

// Apply performs the move for column c to row r, mutating the datacenter,
// and recomputes the two affected rows.
func (m *Matrix) Apply(r, c int) error {
	vm := m.vms[c]
	from := m.pms[m.curRow[c]]
	to := m.pms[r]
	if err := from.Evict(vm); err != nil {
		return fmt.Errorf("oracle: apply move of VM %d: %w", vm.ID, err)
	}
	if err := to.Host(vm); err != nil {
		return fmt.Errorf("oracle: apply move of VM %d: %w", vm.ID, err)
	}
	m.RecomputeRow(m.rowOf[from.ID])
	m.RecomputeRow(m.rowOf[to.ID])
	return nil
}

// BestPlacement is the pre-kernel arrival path: evaluate Joint on every
// active PM, build the full candidate slice, sort it, take the head.
func BestPlacement(ctx *core.Context, factors []core.Factor, vm *cluster.VM) *cluster.PM {
	var out []core.Placement
	for _, pm := range ctx.DC.ActivePMs() {
		if p := core.Joint(ctx, factors, vm, pm, false); p > 0 {
			out = append(out, core.Placement{PM: pm, Probability: p})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].PM.ID < out[j].PM.ID
	})
	if len(out) == 0 {
		return nil
	}
	return out[0].PM
}
