package cluster

import (
	"fmt"
	"math"

	"repro/internal/vector"
)

// fitBlock is how many consecutive PMs share one block maximum of the
// first-fit index. A query tests the block maxima in ID order and scans a
// covering block's leaves, one contiguous run of memory.
const fitBlock = 16

// fitIndex is the first-fit index behind Datacenter.FirstFit: two levels
// over PM IDs. A leaf is one PM's residual (Capacity - Used) per resource
// dimension; a block holds, per dimension, the largest leaf of its fitBlock
// consecutive PMs. An off, shutting-down or failed PM, and the padding
// past the fleet in the last block, read -Inf.
//
// The index is not state. A datacenter builds it on its first FirstFit
// call, from live state, and subscribes its feed then, so a datacenter that
// never asks pays nothing per bump; CloneTopology and a checkpoint restore
// start without one.
type fitIndex struct {
	k int // resource dimension K

	// block holds block b's K maxima at block[b*k : b*k+k]; leaf holds PM
	// j's residual at leaf[j*k : j*k+k].
	block, leaf []float64

	// slack[j] is the prune's margin in dimension j, Epsilon plus 2^-48 of
	// the fleet's largest capacity in j (plus Epsilon). A query skips a
	// block or leaf whose value in some dimension is below need, the
	// demand less the slack; the margin is what makes rounding in
	// Capacity - Used and in the subtraction unable to skip a PM that Fits
	// the demand (DESIGN §16, "First-fit from an index").
	slack, need []float64

	// feed names the PMs bumped since the last sync, whose leaves are
	// stale until it.
	feed *Feed
}

// FirstFit returns the lowest-ID PM that can host demand (PM.CanHost), or
// nil if none can: the answer of a walk over PMs() in ID order, found by
// testing one block maximum per fitBlock PMs and the leaves of the blocks
// that cover demand. The first call builds the index; each call first
// re-reads the PMs bumped since the last. demand's components must be
// non-negative, as vector.V.Validate requires.
func (d *Datacenter) FirstFit(demand vector.V) *PM {
	if d.fit == nil {
		d.fit = newFitIndex(d)
	} else {
		d.fit.sync(d)
	}
	return d.fit.first(d.pms, demand)
}

// newFitIndex builds d's index from live state and subscribes its feed.
func newFitIndex(d *Datacenter) *fitIndex {
	k := d.rmin.Dim()
	blocks := (len(d.pms) + fitBlock - 1) / fitBlock
	x := &fitIndex{
		k:     k,
		block: make([]float64, blocks*k),
		leaf:  make([]float64, blocks*fitBlock*k),
		slack: make([]float64, k),
		need:  make([]float64, k),
		feed:  d.Subscribe(),
	}
	for i := range x.leaf {
		x.leaf[i] = math.Inf(-1)
	}
	for _, p := range d.pms {
		for j, c := range p.Class.Capacity {
			x.slack[j] = max(x.slack[j], c)
			x.leaf[int(p.ID)*k+j] = p.residual(j)
		}
	}
	for j, c := range x.slack {
		x.slack[j] = vector.Epsilon + (c+vector.Epsilon)*0x1p-48
	}
	for i := range x.block {
		x.block[i] = x.blockMax(i/k, i%k)
	}
	return x
}

// residual returns the PM's Capacity - Used in dimension j, or -Inf when
// the PM is not active: the leaf the index keeps.
func (p *PM) residual(j int) float64 {
	if !p.Active() {
		return math.Inf(-1)
	}
	return p.Class.Capacity[j] - p.Used[j]
}

// blockMax is the largest leaf of block b in dimension j.
func (x *fitIndex) blockMax(b, j int) float64 {
	n := fitBlock * x.k
	rows := x.leaf[b*n:][:n]
	v := rows[j]
	for r := j + x.k; r < n; r += x.k {
		if rows[r] > v {
			v = rows[r]
		}
	}
	return v
}

// sync re-reads the leaves of the PMs the feed names. A block takes a leaf
// that grew past its maximum directly, and rescans its leaves in a
// dimension only when the leaf that held the maximum there went down.
func (x *fitIndex) sync(d *Datacenter) {
	for _, id := range x.feed.Take() {
		p, b := d.pms[id], int(id)/fitBlock
		leaf, m := x.leaf[int(id)*x.k:][:x.k], x.block[b*x.k:][:x.k]
		for j := range leaf {
			v, old := p.residual(j), leaf[j]
			leaf[j] = v
			switch {
			case v > m[j]:
				m[j] = v
			case v < old && old == m[j]:
				m[j] = x.blockMax(b, j)
			}
		}
	}
}

// covers reports whether the K-vector at row i of rows (a block's maxima
// or a PM's residual) reaches need in every dimension. K = 2, the Table II
// fleets' CPU and memory, is spelled out: the test is about 40 % of the
// index's time on a 1,000-PM week, and the loop form cost 15 % more
// there. No value is NaN, so m >= t is !(m < t).
func (x *fitIndex) covers(rows []float64, i int, need []float64) bool {
	m := rows[i*x.k:][:len(need)]
	if len(need) == 2 {
		return m[0] >= need[0] && m[1] >= need[1]
	}
	for j, t := range need {
		if m[j] < t {
			return false
		}
	}
	return true
}

// first tests the blocks in ID order, skipping every block whose maxima
// do not cover demand less the slack, and scans a covering block's leaves
// in ID order. A leaf that covers is the one place a PM is read, and
// PM.CanHost decides, so the answer is exactly the first PM of pms that
// can host demand. A padding leaf reads -Inf and never covers.
func (x *fitIndex) first(pms []*PM, demand vector.V) *PM {
	need := x.need[:len(demand)]
	for j, v := range demand {
		need[j] = v - x.slack[j]
	}
	for b, lo := 0, 0; lo < len(pms); b, lo = b+1, lo+fitBlock {
		if !x.covers(x.block, b, need) {
			continue
		}
		for j := lo; j < lo+fitBlock; j++ {
			if x.covers(x.leaf, j, need) && pms[j].CanHost(demand) {
				return pms[j]
			}
		}
	}
	return nil
}

// check holds the index to the live fleet: every block is the maximum of
// its leaves, every padding leaf is -Inf, and the leaf of every PM the feed
// does not name equals its residual bit for bit.
func (x *fitIndex) check(d *Datacenter) error {
	for i, got := range x.block {
		b, j, want := i/x.k, i%x.k, math.Inf(-1)
		for r := b * fitBlock; r < (b+1)*fitBlock; r++ {
			want = max(want, x.leaf[r*x.k+j])
		}
		if got != want {
			return fmt.Errorf("cluster: first-fit index block %d holds %g in dimension %d, the maximum of its leaves is %g", b, got, j, want)
		}
	}
	for i := len(d.pms) * x.k; i < len(x.leaf); i++ {
		if !math.IsInf(x.leaf[i], -1) {
			return fmt.Errorf("cluster: first-fit index padding leaf %d holds %g, want -Inf", i/x.k, x.leaf[i])
		}
	}
	for _, p := range d.pms {
		if x.feed.Pending(p.ID) {
			continue
		}
		got := x.leaf[int(p.ID)*x.k:][:x.k]
		for j := range got {
			if want := p.residual(j); math.Float64bits(got[j]) != math.Float64bits(want) {
				return fmt.Errorf("cluster: first-fit index leaf of PM %d reads %g in dimension %d, its residual is %g", p.ID, got[j], j, want)
			}
		}
	}
	return nil
}
