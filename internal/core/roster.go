package core

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
)

// roster is the Context's placed VMs bucketed by host and demand shape
// (DESIGN.md §13, "Step B across passes"), kept across consolidation passes:
// per PM the VMs placed there in ID order, each with its interned shape id,
// and the PM's hosted-cell probability cur; per shape the PMs holding any
// of its VMs in (cur asc, ID asc) order, which lets a sweep stop at the
// first host whose bound cannot beat MIG_threshold (bound.go). A PM is re-read when the
// datacenter's change feed names it, and a move's endpoints right after the
// move. Membership is placement, not state — VM.State is written with no
// bump — so State is read live. Nothing here holds p_vir or ages with the
// clock; the roster is never checkpointed.
type roster struct {
	pms     []rosterPM    // per PM ID
	ents    []rosterEntry // the slab every PM's bucket lives in
	hosts   [][]int32     // per shape id: the PMs holding a VM of it, (cur asc, ID asc)
	old     []rosterEntry // reread scratch: the bucket being replaced
	offline int           // inactive PMs holding VMs
	// feed names the PMs written to since the last sync: the Context's
	// roster subscribes, a cold twin built for a differential does not.
	feed *cluster.Feed
}

type rosterPM struct {
	cur         float64 // hosted-cell probability: Reliability * p_eff(Utilization())
	off, n, cap int32   // the bucket is ents[off : off+n], with room for cap
	active      bool
}

type rosterEntry struct {
	vm    *cluster.VM
	shape int32 // id into ctx.shapeTab
}

// hostedProb is the hosted-cell probability of pm under the Context's form:
// p_res = p_vir = 1 on the host, so (reliability times the efficiency term
// at the present utilization, which already includes its VMs) times the
// price term, each 1 when the form drops it — the cell's order.
func (ctx *Context) hostedProb(pm *cluster.PM) float64 {
	rel, eff, price := 1.0, 1.0, 1.0
	if !ctx.form.noRel {
		rel = pm.Reliability()
	}
	if !ctx.form.noEff {
		eff = effProbability(ctx.classInfoFor(pm), pm.Utilization())
	}
	if ctx.form.price != nil {
		price = ctx.prices[pm.ID]
	}
	return rel * eff * price
}

// syncRoster brings the roster up to date with the fleet and the price
// terms — built cold on a Context's first pass, afterwards re-reading the
// PMs the feed names in ascending ID order — and returns it.
func (ctx *Context) syncRoster() *roster {
	ctx.syncPrices()
	ro := ctx.roster
	if ro == nil {
		ro = newRoster(ctx)
		ro.feed = ctx.DC.Subscribe()
		ctx.roster = ro
		ctx.metrics().coldBuilds.Add(1)
		return ro
	}
	ids := ro.feed.Take()
	slices.Sort(ids)
	pms := ctx.DC.PMs()
	for _, id := range ids {
		inserts, drops := ro.reread(ctx, pms[id])
		ctx.metrics().resynced.Add(1)
		ctx.metrics().inserts.Add(int64(inserts))
		ctx.metrics().drops.Add(int64(drops))
	}
	return ro
}

// newRoster reads every PM of the fleet. Each bucket starts with room for
// as many minimal VMs as the PM's class holds, so the slab is one
// allocation for the run unless a PM takes VMs below R^MIN.
func newRoster(ctx *Context) *roster {
	pms := ctx.DC.PMs()
	ro := &roster{pms: make([]rosterPM, len(pms))}
	size := int32(0)
	for id, pm := range pms {
		if pm.ID != cluster.PMID(id) {
			panic(fmt.Sprintf("core: the roster needs dense PM IDs (slot %d holds PM %d)", id, pm.ID))
		}
		p := &ro.pms[id]
		p.off, p.cap = size, int32(max(ctx.classInfoFor(pm).wj, pm.VMCount()))
		size += p.cap
	}
	ro.ents = make([]rosterEntry, size)
	for _, pm := range pms {
		ro.reread(ctx, pm)
	}
	return ro
}

// reread replaces pm's bucket, cur and active with the PM as it stands,
// and its share of offline. The old and the new bucket are both in
// ascending VM ID order, so one merge walk finds each VM still placed —
// the same object, not just the same ID — and it keeps its shape id; a new
// one is interned. inserts and drops count the VMs that came and went.
//
// The host orders change by shape, not by VM: each shape of the old and the
// new bucket is taken once, at its first VM there, and the PM leaves a
// shape's order — at the old cur, before cur is written — only if the shape
// left the PM or cur changed, and enters it — at the new cur — only if the
// shape is new to the PM or cur changed. A re-read that keeps cur and the
// PM's set of shapes touches no host order. A bucket holds a few VMs of
// fewer shapes, so the shapes are told apart by scanning it.
func (ro *roster) reread(ctx *Context, pm *cluster.PM) (inserts, drops int) {
	id := int32(pm.ID)
	p := &ro.pms[id]
	if p.offline() {
		ro.offline--
	}
	old := append(ro.old[:0], ro.bucket(id)...)
	ro.old = old
	n := int32(pm.VMCount())
	if n > p.cap { // move the bucket to the slab's end, with room to grow
		clear(ro.ents[p.off : p.off+p.cap])
		p.off, p.cap = int32(len(ro.ents)), max(2*n, 4)
		ro.ents = append(ro.ents, make([]rosterEntry, p.cap)...)
	}
	clear(ro.ents[p.off+n : p.off+max(n, p.n)])
	seg, k, j := ro.ents[p.off:p.off+n], 0, 0
	pm.EachVM(func(vm *cluster.VM) { // ascending ID, as old is: one merge walk
		for j < len(old) && old[j].vm.ID < vm.ID {
			j++
		}
		seg[k] = rosterEntry{vm, -1}
		if j < len(old) && old[j].vm == vm {
			seg[k].shape = old[j].shape
		}
		if seg[k].shape < 0 {
			seg[k].shape = ctx.shapeID(vm.Demand)
			inserts++
		}
		k++
	})
	p.n = n
	drops = len(old) - (int(n) - inserts)

	// With cur kept, only a VM that went can take a shape away, and only
	// one that came can bring one.
	cur := ctx.hostedProb(pm)
	moved := cur != p.cur
	if moved || drops > 0 {
		for i, e := range old {
			if !hasShape(old[:i], e.shape) && (moved || !hasShape(seg, e.shape)) {
				ro.remove(e.shape, id, p.cur)
			}
		}
	}
	p.active, p.cur = pm.Active(), cur
	if moved || inserts > 0 {
		for i, e := range seg {
			if !hasShape(seg[:i], e.shape) && (moved || !hasShape(old, e.shape)) {
				ro.insert(e.shape, id, cur)
			}
		}
	}
	if p.offline() {
		ro.offline++
	}
	return inserts, drops
}

// hasShape reports whether bucket b holds a VM of shape sid.
func hasShape(b []rosterEntry, sid int32) bool {
	for _, e := range b {
		if e.shape == sid {
			return true
		}
	}
	return false
}

// offline reports whether the PM holds VMs while inactive.
func (p *rosterPM) offline() bool { return !p.active && p.n > 0 }

// bucket returns the VMs placed on PM id, in ascending VM ID order.
func (ro *roster) bucket(id int32) []rosterEntry {
	p := &ro.pms[id]
	return ro.ents[p.off : p.off+p.n]
}

// insert enters PM id into shape sid's host order at cur, and remove takes
// it out from there; each is a no-op when already done.
func (ro *roster) insert(sid, id int32, cur float64) {
	for int(sid) >= len(ro.hosts) {
		ro.hosts = append(ro.hosts, make([]int32, 0, len(ro.pms)))
	}
	if at, found := ro.search(ro.hosts[sid], id, cur); !found {
		ro.hosts[sid] = slices.Insert(ro.hosts[sid], at, id)
	}
}

func (ro *roster) remove(sid, id int32, cur float64) {
	if at, found := ro.search(ro.hosts[sid], id, cur); found {
		ro.hosts[sid] = slices.Delete(ro.hosts[sid], at, at+1)
	}
}

// search is a binary search for PM id, at cur, in hosts, ordered (cur asc,
// ID asc).
func (ro *roster) search(hosts []int32, id int32, cur float64) (int, bool) {
	lo, hi := 0, len(hosts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h := hosts[m]; ro.pms[h].cur < cur || (ro.pms[h].cur == cur && h < id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(hosts) && hosts[lo] == id
}

// running reports whether any placed VM is Running — a pass over none ends
// before it starts — and fails, with NewMatrix's error, on a Running VM
// hosted on a PM that is not active, looked for while one holds VMs.
func (ro *roster) running() (found bool, err error) {
	for id := range ro.pms {
		for _, e := range ro.bucket(int32(id)) {
			switch {
			case e.vm.State != cluster.VMRunning:
			case !ro.pms[id].active:
				return false, fmt.Errorf("core: VM %d hosted on inactive PM %d", e.vm.ID, id)
			case ro.offline == 0:
				return true, nil
			default:
				found = true
			}
		}
	}
	return found, nil
}

// CheckColumns is the roster differential: it syncs the roster as a pass
// would — leaving the run's counters alone — and holds it to a cold rebuild
// (diffRoster). The auditor runs it once per control period, the operation
// fuzzers after every step.
func (ctx *Context) CheckColumns() error {
	saved := ctx.Obs
	ctx.Obs = nil
	defer func() { ctx.Obs = saved }()
	ctx.syncRoster()
	return ctx.diffRoster()
}

// diffRoster holds a synced roster to one built cold from the fleet: every
// PM's active and cur, its bucket as a list of (VM, shape id) in VM ID
// order — a cold read interns every demand afresh — every shape's host
// order, which the cold build's inserts sort afresh, and the count of
// inactive PMs holding VMs. SelfAudit runs it on every pass. The Running
// columns follow: the buckets hold the placed VMs, State is read live.
func (ctx *Context) diffRoster() error {
	ro, cold := ctx.roster, newRoster(ctx)
	for id, p := range ro.pms {
		b, want := ro.bucket(int32(id)), cold.bucket(int32(id))
		if q := cold.pms[id]; p.active != q.active || p.cur != q.cur || len(b) != len(want) {
			return fmt.Errorf("core: roster has PM %d active %v, cur %g, %d VMs; a cold build %v, %g, %d", id, p.active, p.cur, len(b), q.active, q.cur, len(want))
		}
		for i, e := range b {
			if e != want[i] {
				return fmt.Errorf("core: roster has VM %d as shape %d at %d on PM %d, a cold build VM %d as shape %d", e.vm.ID, e.shape, i, id, want[i].vm.ID, want[i].shape)
			}
		}
	}
	for sid, hosts := range ro.hosts { // the buckets agree, so cold has no shape past these
		var want []int32
		if sid < len(cold.hosts) {
			want = cold.hosts[sid]
		}
		if !slices.Equal(hosts, want) {
			return fmt.Errorf("core: shape %d's host order is %v, a cold build's %v", sid, hosts, want)
		}
	}
	if ro.offline != cold.offline {
		return fmt.Errorf("core: roster counts %d inactive PMs holding VMs, a cold build %d", ro.offline, cold.offline)
	}
	return nil
}
