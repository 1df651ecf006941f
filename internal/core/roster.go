package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
)

// roster is the Context's placed VMs bucketed by host and demand shape
// (DESIGN.md §13, "Step B across passes"), kept across consolidation passes:
// per PM the VMs placed there, each with its interned shape id, and the PM's
// hosted-cell probability cur; per shape the PMs holding any of its VMs in
// (cur asc, ID asc) order, which lets a sweep stop at the first host whose
// bound cannot beat MIG_threshold (bound.go). A PM is re-read when its
// (Version, reliability, active) stamp moves, and a move's endpoints right
// after the move. Membership is placement, not state — VM.State is written
// with no version bump — so State is read live. Nothing here holds p_vir or
// ages with the clock; the roster is never checkpointed.
type roster struct {
	pms     []rosterPM    // per PM ID
	ents    []rosterEntry // the slab every PM's bucket lives in
	hosts   [][]int32     // per shape id: the PMs holding a VM of it, (cur asc, ID asc)
	old     []rosterEntry // reread scratch: the bucket being replaced
	offline bool          // an inactive PM holds VMs, as of the last sync
}

type rosterPM struct {
	ver, rel    uint64  // the stamp: Version, Reliability bits and active
	cur         float64 // hosted-cell probability: Reliability * p_eff(Utilization())
	off, n, cap int32   // the bucket is ents[off : off+n], with room for cap
	active      bool
}

type rosterEntry struct {
	vm    *cluster.VM
	shape int32 // id into ctx.shapeTab
}

// hostedProb is the canonical program's hosted-cell probability of pm —
// p_res = p_vir = 1 on the host, so reliability times the efficiency term at
// the present utilization, which already includes its VMs.
func (ctx *Context) hostedProb(pm *cluster.PM) float64 {
	return pm.Reliability * effProbability(ctx.classInfoFor(pm), pm.Utilization())
}

// syncRoster brings the roster up to date with the fleet — built cold on a
// Context's first pass, afterwards re-reading the PMs whose stamp moved —
// and returns it.
func (ctx *Context) syncRoster() *roster {
	pms := ctx.DC.PMs()
	ro := ctx.roster
	if ro == nil {
		ro = newRoster(ctx)
		ctx.roster = ro
		ctx.Obs.Add("core.roster_cold_builds", 1)
	}
	ro.offline = false
	for id, pm := range pms {
		p := &ro.pms[id]
		if p.ver != pm.Version() || p.rel != math.Float64bits(pm.Reliability) || p.active != pm.Active() {
			inserts, drops := ro.reread(ctx, pm)
			ctx.Obs.Add("core.roster_resynced_pms", 1)
			ctx.Obs.Add("core.roster_inserts", int64(inserts))
			ctx.Obs.Add("core.roster_drops", int64(drops))
		}
		ro.offline = ro.offline || (!p.active && p.n > 0)
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

// reread replaces pm's bucket, cur and stamp with the PM as it stands. A VM
// still placed keeps its shape id; a new one is interned. inserts and drops
// count the VMs that came and went.
func (ro *roster) reread(ctx *Context, pm *cluster.PM) (inserts, drops int) {
	id := int32(pm.ID)
	p := &ro.pms[id]
	old := append(ro.old[:0], ro.bucket(id)...)
	ro.old = old
	for _, e := range old {
		ro.leave(e.shape, id)
	}
	p.ver, p.rel, p.active, p.cur = pm.Version(), math.Float64bits(pm.Reliability), pm.Active(), ctx.hostedProb(pm)
	n := int32(pm.VMCount())
	if n > p.cap { // move the bucket to the slab's end, with room to grow
		clear(ro.ents[p.off : p.off+p.cap])
		p.off, p.cap = int32(len(ro.ents)), max(2*n, 4)
		ro.ents = append(ro.ents, make([]rosterEntry, p.cap)...)
	}
	clear(ro.ents[p.off+n : p.off+max(n, p.n)])
	seg, k := ro.ents[p.off:p.off+n], 0
	pm.EachVM(func(vm *cluster.VM) {
		seg[k] = rosterEntry{vm, -1}
		for _, e := range old {
			if e.vm == vm {
				seg[k].shape = e.shape
			}
		}
		if seg[k].shape < 0 {
			seg[k].shape = ctx.shapeID(vm.Demand)
			inserts++
		}
		ro.join(seg[k].shape, id)
		k++
	})
	p.n = n
	return inserts, len(old) - (int(n) - inserts)
}

// bucket returns the VMs placed on PM id, in no particular order.
func (ro *roster) bucket(id int32) []rosterEntry {
	p := &ro.pms[id]
	return ro.ents[p.off : p.off+p.n]
}

// join and leave enter PM id into shape sid's host order at the PM's
// present cur, or take it out; each is a no-op when already done.
func (ro *roster) join(sid, id int32) {
	for int(sid) >= len(ro.hosts) {
		ro.hosts = append(ro.hosts, make([]int32, 0, len(ro.pms)))
	}
	if at, found := ro.search(ro.hosts[sid], id); !found {
		ro.hosts[sid] = slices.Insert(ro.hosts[sid], at, id)
	}
}

func (ro *roster) leave(sid, id int32) {
	if at, found := ro.search(ro.hosts[sid], id); found {
		ro.hosts[sid] = slices.Delete(ro.hosts[sid], at, at+1)
	}
}

// search is a binary search for PM id in hosts, ordered (cur asc, ID asc).
func (ro *roster) search(hosts []int32, id int32) (int, bool) {
	cur := ro.pms[id].cur
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
// before it starts — and fails, with newMatrix's error, on a Running VM
// hosted on a PM that is not active, looked for while one holds VMs.
func (ro *roster) running() (found bool, err error) {
	for id := range ro.pms {
		for _, e := range ro.bucket(int32(id)) {
			switch {
			case e.vm.State != cluster.VMRunning:
			case !ro.pms[id].active:
				return false, fmt.Errorf("core: VM %d hosted on inactive PM %d", e.vm.ID, id)
			case !ro.offline:
				return true, nil
			default:
				found = true
			}
		}
	}
	return found, nil
}

// columns returns a dense pass's VM axis — every Running VM, ID ascending —
// gathered from the buckets. It is Context scratch, valid until the next
// call.
func (ctx *Context) columns() []*cluster.VM {
	ro := ctx.roster
	vms := ctx.vmBuf[:0]
	for id := range ro.pms {
		for _, e := range ro.bucket(int32(id)) {
			if e.vm.State == cluster.VMRunning {
				vms = append(vms, e.vm)
			}
		}
	}
	slices.SortFunc(vms, func(a, b *cluster.VM) int { return cmp.Compare(a.ID, b.ID) })
	ctx.vmBuf = vms
	return vms
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
// PM's stamp and cur, its bucket as a set of (VM, shape id) — a cold read
// interns every demand afresh — and every shape's host order, which the
// cold build's inserts sort afresh. SelfAudit runs it on every pass. The
// Running columns follow: the buckets hold the placed VMs, State is read
// live.
func (ctx *Context) diffRoster() error {
	ro, cold := ctx.roster, newRoster(ctx)
	for id, p := range ro.pms {
		b, want := ro.bucket(int32(id)), cold.bucket(int32(id))
		if q := cold.pms[id]; p.ver != q.ver || p.rel != q.rel || p.active != q.active || p.cur != q.cur || len(b) != len(want) {
			return fmt.Errorf("core: roster has PM %d at version %d, cur %g, %d VMs; a cold build at %d, %g, %d", id, p.ver, p.cur, len(b), q.ver, q.cur, len(want))
		}
		for _, e := range b {
			if !slices.Contains(want, e) {
				return fmt.Errorf("core: roster has VM %d as shape %d on PM %d, a cold build does not", e.vm.ID, e.shape, id)
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
	return nil
}
