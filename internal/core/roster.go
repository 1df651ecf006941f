package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
)

// roster is the Context's column roster (DESIGN.md §13): every placed VM
// in ID order with its interned demand shape, kept across consolidation
// passes — one runs on every arrival and departure, and the placed set
// changes by a VM or two in between — and repaired from per-PM Version
// stamps instead of re-collected, re-sorted and re-interned. The stamps
// are its own: the candidate index consumes its stamps on arrivals, and
// the dense engine has no index. Membership is placement, not state —
// VM.State is written with no version bump — so Running is filtered per
// pass (Context.columns). No probability is held, so nothing here ages
// with the clock; the roster is never checkpointed, a restored run builds
// it cold on its first pass.
type roster struct {
	cols []rosterEntry // placed VMs, ID ascending
	vers []uint64      // per PM, in DC.PMs() order: Version at the last reconcile
}

type rosterEntry struct {
	vm    *cluster.VM
	shape int32 // id into ctx.shapeTab
}

// columns returns a consolidation pass's VM axis — every Running VM, ID
// ascending — and each column's shape id, from the roster brought up to
// date with the fleet. Both are Context scratch, valid until the next call.
func (ctx *Context) columns() ([]*cluster.VM, []int32) {
	if ctx.roster == nil {
		ctx.buildRoster()
	} else {
		ctx.roster.reconcile(ctx)
	}
	vms, shapes := ctx.vmBuf[:0], ctx.shapeBuf[:0]
	for _, e := range ctx.roster.cols {
		if e.vm.State == cluster.VMRunning {
			vms = append(vms, e.vm)
			shapes = append(shapes, e.shape)
		}
	}
	ctx.vmBuf, ctx.shapeBuf = vms, shapes
	return vms, shapes
}

// buildRoster is the cold build: collect every placed VM, sort by ID.
func (ctx *Context) buildRoster() {
	pms := ctx.DC.PMs()
	ro := &roster{vers: make([]uint64, len(pms))}
	for i, pm := range pms {
		ro.vers[i] = pm.Version()
		pm.EachVM(func(vm *cluster.VM) {
			ro.cols = append(ro.cols, rosterEntry{vm, ctx.shapeID(vm.Demand)})
		})
	}
	slices.SortFunc(ro.cols, func(a, b rosterEntry) int { return cmp.Compare(a.vm.ID, b.vm.ID) })
	ctx.roster = ro
	ctx.Obs.Add("core.roster_cold_builds", 1)
}

// reconcile repairs the roster after whatever happened since the last
// pass: the sweep drops an evicted VM wherever it was hosted, a newly
// hosted one is found through its PM's moved stamp, and one evicted and
// hosted again in between (a migration, a failure re-placement) keeps its
// entry — the sweep sees a host, the search finds the ID.
func (ro *roster) reconcile(ctx *Context) {
	kept := ro.cols[:0]
	for _, e := range ro.cols {
		if e.vm.Host != cluster.NoPM {
			kept = append(kept, e)
		}
	}
	drops := len(ro.cols) - len(kept)
	clear(ro.cols[len(kept):])
	ro.cols = kept

	resynced, inserts := 0, 0
	for i, pm := range ctx.DC.PMs() {
		ver := pm.Version()
		if ver == ro.vers[i] {
			continue
		}
		ro.vers[i] = ver
		resynced++
		pm.EachVM(func(vm *cluster.VM) {
			at, found := slices.BinarySearchFunc(ro.cols, vm.ID,
				func(e rosterEntry, id cluster.VMID) int { return cmp.Compare(e.vm.ID, id) })
			if !found {
				ro.cols = slices.Insert(ro.cols, at, rosterEntry{vm, ctx.shapeID(vm.Demand)})
				inserts++
			}
		})
	}
	ctx.Obs.Add("core.roster_resynced_pms", int64(resynced))
	ctx.Obs.Add("core.roster_inserts", int64(inserts))
	ctx.Obs.Add("core.roster_drops", int64(drops))
}

// CheckColumns is the roster differential: it reconciles the roster as a
// pass would — leaving the run's counters alone — and holds the result to
// the cold reference (diffColumns). The auditor runs it once per control
// period, the operation fuzzers after every step.
func (ctx *Context) CheckColumns() error {
	saved := ctx.Obs
	ctx.Obs = nil
	defer func() { ctx.Obs = saved }()
	vms, _ := ctx.columns()
	return ctx.diffColumns(vms)
}

// diffColumns compares a reconciled roster and the columns a pass took
// from it with the cold reference: the Running columns pointer-for-pointer
// and in order against Datacenter.AppendVMsInState, no placed VM missing,
// every stored shape id equal to a fresh interning. SelfAudit runs it on
// every pass.
func (ctx *Context) diffColumns(vms []*cluster.VM) error {
	cold := ctx.DC.AppendVMsInState(nil, cluster.VMRunning)
	if len(vms) != len(cold) {
		return fmt.Errorf("core: roster yields %d running columns, the fleet has %d", len(vms), len(cold))
	}
	for c, vm := range cold {
		if vms[c] != vm {
			return fmt.Errorf("core: roster column %d is VM %d, the fleet's is VM %d", c, vms[c].ID, vm.ID)
		}
	}
	cols := ctx.roster.cols
	if placed := ctx.DC.VMCount(); len(cols) != placed {
		return fmt.Errorf("core: roster holds %d VMs, the fleet has %d placed", len(cols), placed)
	}
	for _, e := range cols {
		if want := ctx.shapeID(e.vm.Demand); e.shape != want {
			return fmt.Errorf("core: roster has VM %d as shape %d, its demand interns to %d", e.vm.ID, e.shape, want)
		}
	}
	return nil
}
