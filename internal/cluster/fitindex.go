package cluster

import (
	"fmt"
	"math"

	"repro/internal/vector"
)

// fitBlock is how many consecutive PMs share one bottom node of the
// first-fit index. The descent scans a bottom node's leaves in ID order,
// one contiguous run of memory, instead of descending four more levels of
// nodes and backtracking where the dimensions disagree.
const fitBlock = 16

// fitIndex is the first-fit index behind Datacenter.FirstFit: a segment
// tree over PM IDs in which each node holds, for every resource dimension,
// the largest residual (Capacity - Used) of the active PMs under it. An
// off, shutting-down or failed PM, and the padding past the fleet, read
// -Inf. The tree is in heap order over blocks of fitBlock PMs: the root is
// node 1, node i's children are 2i and 2i+1, and the block of PMs
// [b*fitBlock, (b+1)*fitBlock) is node blocks+b, whose maxima are those of
// its leaves.
//
// The index is not state. A datacenter builds it on its first FirstFit
// call, from live state, and subscribes its feed then, so a datacenter that
// never asks pays nothing per bump; CloneTopology and a checkpoint restore
// start without one.
type fitIndex struct {
	k      int // resource dimension K
	blocks int // bottom nodes: the least power of two covering the fleet

	// node holds node i's K maxima at node[i*k : i*k+k]; leaf holds PM j's
	// residual at leaf[j*k : j*k+k].
	node, leaf []float64

	// slack[j] is the prune's margin in dimension j, Epsilon plus 2^-48 of
	// the fleet's largest capacity in j (plus Epsilon). A query prunes a
	// subtree whose maximum in some dimension is below need, the demand
	// less the slack; the margin is what makes rounding in Capacity - Used
	// and in the subtraction unable to prune a PM that Fits the demand
	// (DESIGN §16, "One walk for the fit family").
	slack, need []float64

	// feed names the PMs bumped since the last sync, whose leaves are
	// stale until it.
	feed *Feed
}

// FirstFit returns the lowest-ID PM that can host demand (PM.CanHost), or
// nil if none can: the answer of a walk over PMs() in ID order, found in
// O(log n) node visits where the residuals agree across dimensions. The
// first call builds the index; each call first re-reads the PMs bumped
// since the last. demand's components must be non-negative, as
// vector.V.Validate requires.
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
	blocks := 1
	for blocks*fitBlock < len(d.pms) {
		blocks <<= 1
	}
	x := &fitIndex{
		k: k, blocks: blocks,
		node:  make([]float64, 2*blocks*k),
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
	for i := 2*blocks - 1; i >= blocks; i-- {
		for j := range k {
			x.node[i*k+j] = x.blockMax(i, j)
		}
	}
	for i := blocks - 1; i >= 1; i-- {
		x.pull(i)
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

// at returns node i's K maxima.
func (x *fitIndex) at(i int) []float64 { return x.node[i*x.k : i*x.k+x.k] }

// pull recomputes inner node i as the maximum of its children and reports
// whether any dimension changed.
func (x *fitIndex) pull(i int) bool {
	m, l, r := x.at(i), x.at(2*i), x.at(2*i+1)
	changed := false
	for j := range m {
		v := l[j]
		if r[j] > v {
			v = r[j]
		}
		if v != m[j] {
			m[j] = v
			changed = true
		}
	}
	return changed
}

// blockMax is the largest leaf of bottom node i in dimension j.
func (x *fitIndex) blockMax(i, j int) float64 {
	n := fitBlock * x.k
	rows := x.leaf[(i-x.blocks)*n:][:n]
	v := rows[j]
	for r := j + x.k; r < n; r += x.k {
		if rows[r] > v {
			v = rows[r]
		}
	}
	return v
}

// sync re-reads the leaves of the PMs the feed names and carries each
// change up, stopping at the first node whose maxima stay put. A bottom
// node rescans its block in a dimension only when the leaf that held its
// maximum there went down.
func (x *fitIndex) sync(d *Datacenter) {
	for _, id := range x.feed.Take() {
		p, b := d.pms[id], x.blocks+int(id)/fitBlock
		leaf, m := x.leaf[int(id)*x.k:][:x.k], x.at(b)
		changed := false
		for j := range leaf {
			v, old := p.residual(j), leaf[j]
			leaf[j] = v
			switch {
			case v > m[j]:
				m[j], changed = v, true
			case v < old && old == m[j]:
				if w := x.blockMax(b, j); w != m[j] {
					m[j], changed = w, true
				}
			}
		}
		for i := b >> 1; changed && i >= 1; i >>= 1 {
			changed = x.pull(i)
		}
	}
}

// covers reports whether the K-vector at row i of rows (a node's maxima or
// a PM's residual) reaches need in every dimension. K = 2, the Table II
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

// first descends left-first, skipping every subtree that does not cover
// demand less the slack and backtracking where the dimensions' maxima come
// from different PMs. In a bottom node that covers it scans the block's
// leaves in ID order; a leaf that covers is the one place a PM is read,
// and PM.CanHost decides, so the answer is exactly the first PM of pms
// that can host demand.
func (x *fitIndex) first(pms []*PM, demand vector.V) *PM {
	need := x.need[:len(demand)]
	for j, v := range demand {
		need[j] = v - x.slack[j]
	}
	for i := 1; ; {
		if x.covers(x.node, i, need) {
			if i < x.blocks {
				i <<= 1
				continue
			}
			lo := (i - x.blocks) * fitBlock
			for j := lo; j < lo+fitBlock; j++ {
				if x.covers(x.leaf, j, need) && pms[j].CanHost(demand) {
					return pms[j]
				}
			}
		}
		// Next subtree to the right: climb past the right children, then
		// step to the sibling. Climbing past the root ends the walk.
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return nil
		}
		i++
	}
}

// check holds the index to the live fleet: every node is the maximum of
// its children or of its block's leaves, every padding leaf is -Inf, and
// the leaf of every PM the feed does not name equals its residual bit for
// bit.
func (x *fitIndex) check(d *Datacenter) error {
	for i := 1; i < 2*x.blocks; i++ {
		lo, hi := 2*i, 2*i+2
		rows := x.node
		if i >= x.blocks {
			lo, hi = (i-x.blocks)*fitBlock, (i-x.blocks+1)*fitBlock
			rows = x.leaf
		}
		for j, got := range x.at(i) {
			want := math.Inf(-1)
			for r := lo; r < hi; r++ {
				want = max(want, rows[r*x.k+j])
			}
			if got != want {
				return fmt.Errorf("cluster: first-fit index node %d holds %g in dimension %d, the maximum below it is %g", i, got, j, want)
			}
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
