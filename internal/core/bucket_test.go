package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/vector"
)

// This file holds the roster's buckets (roster.go) and the sweep over them
// (bound.go) to the per-column sweep they replaced: after every pass of the
// lazy harness (lazy_test.go) the bucket sweep's survivors must be a cold
// column sweep's over MigratableVMs, as (VM, bound bits), and the roster a
// cold rebuild's (checkBuckets). TestBucketHazards scripts the ways the
// buckets could go stale on top of that harness, whose two mirrored fleets
// also compare every move and every hook's alternatives.

// rosterPlaced counts the VMs in the roster's buckets.
func rosterPlaced(ro *roster) int {
	n := 0
	for id := range ro.pms {
		n += len(ro.bucket(int32(id)))
	}
	return n
}

// coldBound is a placed VM's key the per-column way: a fresh hosted-cell
// probability under its shape's top products, re-scanned, times its largest
// p_vir over the class table taken class by class, the product eight ulps
// up and never above the bound itself — the bound unrefined when the
// product times cur is below 2^-1019, 0 when that p_vir is.
func coldBound(ctx *Context, vm *cluster.VM) float64 {
	sh := ctx.candidates().shape(ctx.shapeID(vm.Demand))
	sh.scanTop(ctx.pass)
	cur, v := ctx.hostedProb(ctx.DC.PM(vm.Host)), sh.top.v1
	if sh.top.sole == int32(vm.Host) {
		v = sh.top.v2
	}
	if !(cur > 0) {
		return math.Inf(1)
	}
	bound, vmax := v/cur, 0.0
	for _, info := range ctx.classTab {
		vmax = max(vmax, virProbability(vm.RemainingEstimate(ctx.Now), info.overhead))
	}
	key := bound * vmax
	switch up := math.Float64frombits(math.Float64bits(key) + 8); {
	case vmax == 0:
		return 0
	case key*cur < 0x1p-1019 || !(up < bound):
		return bound
	default:
		return up
	}
}

// coldSweep is the per-column sweep: every Running VM of the fleet kept —
// as its coldBound's bits — when the key exceeds threshold.
func coldSweep(ctx *Context, threshold float64) map[cluster.VMID]uint64 {
	out := make(map[cluster.VMID]uint64)
	for _, vm := range MigratableVMs(ctx.DC) {
		if bound := coldBound(ctx, vm); bound > threshold {
			out[vm.ID] = math.Float64bits(bound)
		}
	}
	return out
}

// migratingBound reports whether a Migrating VM on the dense side has a
// key above the threshold: one a sweep that did not read State would keep.
func (h *lazyHarness) migratingBound() bool {
	ctx := h.sides[1]
	for _, pm := range ctx.DC.PMs() {
		for _, vm := range pm.VMs() {
			if vm.State == cluster.VMMigrating && coldBound(ctx, vm) > h.params.MIGThreshold {
				return true
			}
		}
	}
	return false
}

// checkBuckets syncs ctx's index and roster, sweeps the buckets as a round
// does and holds the survivors to coldSweep's, then the roster to a cold
// rebuild (CheckColumns). The run's counters are left alone.
func checkBuckets(tb testing.TB, ctx *Context, threshold float64) {
	tb.Helper()
	saved := ctx.Obs
	ctx.Obs = nil
	defer func() { ctx.Obs = saved }()
	x := ctx.candidates()
	ctx.syncRoster()
	ctx.sweep(x, threshold)
	want := coldSweep(ctx, threshold)
	for _, s := range ctx.swept {
		if bits, ok := want[s.vm.ID]; !ok || bits != math.Float64bits(s.key) {
			tb.Fatalf("at t=%g: the bucket sweep keeps VM %d at bound %g, the column sweep %t at %g",
				ctx.Now, s.vm.ID, s.key, ok, math.Float64frombits(bits))
		}
	}
	if len(ctx.swept) != len(want) {
		tb.Fatalf("at t=%g: the bucket sweep keeps %d VMs, the column sweep %d", ctx.Now, len(ctx.swept), len(want))
	}
	if err := ctx.CheckColumns(); err != nil {
		tb.Fatalf("at t=%g: %v", ctx.Now, err)
	}
}

// place hosts a new VM of the given demand, in state as, on the same PM on
// every side: the active one with room whose hosted-cell probability is
// lowest, so that its columns are the likeliest to be swept.
func (h *lazyHarness) place(id cluster.VMID, demand vector.V, as cluster.VMState) {
	lead := h.sides[1]
	var at *cluster.PM
	for _, pm := range lead.DC.PMs() {
		if pm.CanHost(demand) && (at == nil || lead.hostedProb(pm) < lead.hostedProb(at)) {
			at = pm
		}
	}
	if at == nil {
		h.t.Fatalf("no room for demand %v", demand)
	}
	for _, ctx := range h.sides {
		vm := cluster.NewVM(id, demand, 40000, 40000, ctx.Now)
		if err := ctx.DC.PM(at.ID).Host(vm); err != nil {
			h.t.Fatal(err)
		}
		vm.State, vm.StartTime = as, ctx.Now
	}
}

// beginTimed turns the last pass's moves into timed migrations as the
// simulator does after a pass — the demand reserved back on the source (a
// bump there), the VM Migrating on its target (no bump there) — and returns
// the moves that went timed: one whose source has no room left stays
// instant.
func (h *lazyHarness) beginTimed() []Move {
	var timed []Move
	for _, mv := range h.last {
		went := false
		h.eachVM(mv.VM, func(_ *cluster.PM, vm *cluster.VM) {
			if vm.State == cluster.VMRunning && h.pmOf(vm, mv.From).Reserve(vm.Demand) == nil {
				vm.State, went = cluster.VMMigrating, true
			}
		})
		if went {
			timed = append(timed, mv)
		}
	}
	if len(timed) == 0 {
		h.t.Fatal("no move of the last pass went timed")
	}
	return timed
}

// pmOf is PM id of the fleet vm lives in.
func (h *lazyHarness) pmOf(vm *cluster.VM, id cluster.PMID) *cluster.PM {
	for _, ctx := range h.sides {
		if pm := ctx.DC.PM(vm.Host); pm != nil && pm.VM(vm.ID) == vm {
			return ctx.DC.PM(id)
		}
	}
	h.t.Fatalf("VM %d is on no side", vm.ID)
	return nil
}

// endTimed ends the timed migrations begun after the pass before last: the
// source's hold released and the VM Running again on its target, with no
// bump there — the cut-over, or, with fail, the unwinding when the source
// fails, whose own VMs then finish.
func (h *lazyHarness) endTimed(moves []Move, fail bool) {
	for _, mv := range moves {
		h.eachVM(mv.VM, func(_ *cluster.PM, vm *cluster.VM) {
			src := h.pmOf(vm, mv.From)
			src.Release(vm.Demand)
			vm.State = cluster.VMRunning
			if !fail || src.State() == cluster.PMFailed {
				return
			}
			for _, victim := range src.VMs() {
				if err := src.Evict(victim); err != nil {
					h.t.Fatal(err)
				}
				victim.State = cluster.VMFinished
			}
			src.SetState(cluster.PMFailed)
		})
	}
}

// TestBucketHazards runs each row's fleet through a pass, then through the
// row's steps with a pass after each, on the lazy harness: every pass both
// ways with moves and alternatives compared, every pass followed by
// checkBuckets. seen, when set, is the row's case, which must hold before at
// least one pass.
func TestBucketHazards(t *testing.T) {
	spread := func(tb testing.TB) *Context {
		ctx, _ := spreadState(tb, 16, 30, 3)
		return ctx
	}
	// PM 0 (reliability 1, two VMs of 32 cores) has the lowest hosted-cell
	// probability, 2/32, and alone the top one-core product, 3/32, so its
	// bound is the runner-up's, PM 1's 0.0835 * 25/32, over 2/32: 1.04375,
	// below MIG_threshold. PM 1's 24 VMs, on 0.0835 * 24/32, are bounded by
	// PM 0's 3/32 at 1.497 and do move there: a walk that stopped at PM 0
	// would prove the pass empty.
	soleFirst := func(testing.TB) *Context {
		return coreFleetOf(32, []float64{0, 0}, []float64{1, 0.0835}, []int{2, 24})
	}
	// One round moves VM 8, alone on PM 2 (reliability 0.5, cur 1/16), to
	// PM 1 (0.5, four VMs), gain 5: PM 0's one-core product, 4/8, is the
	// larger, but with 300 s of overhead and 400 s left p_vir to it is 1/4.
	// On PM 1 (cur 5/16) VM 8 is still bounded by PM 0's product at 1.6: a
	// sweep that did not read State would keep it while it migrates.
	timedFleet := func(testing.TB) *Context {
		return coreFleet([]float64{300, 0, 0}, []float64{1, 0.5, 0.5}, []int{3, 4, 1})
	}
	oneRound := Params{MIGThreshold: 1.05, MIGRound: 1}
	// R^MIN is four cores on eight-core PMs, so a bucket starts with room
	// for two VMs; one-core VMs outgrow it and move it to the slab's end.
	small := func(testing.TB) *Context {
		class := &cluster.PMClass{Name: "eight", Capacity: vector.V{8}, ActivePower: 80, IdlePower: 40, Reliability: 1}
		dc := cluster.MustNew(cluster.Config{RMin: vector.V{4}, Groups: []cluster.Group{{Class: class, Count: 3}}})
		for i, pm := range dc.PMs() {
			pm.SetState(cluster.PMOn)
			vm := cluster.NewVM(cluster.VMID(i+1), vector.V{1}, 40000, 40000, 0)
			if err := pm.Host(vm); err != nil {
				panic(err)
			}
			vm.State = cluster.VMRunning
		}
		return NewContext(dc)
	}
	var timed []Move
	rows := []struct {
		name   string
		fleet  func(testing.TB) *Context
		params Params // zero: MIG_threshold 1.05, two rounds
		steps  []func(h *lazyHarness)
		seen   func(h *lazyHarness) bool
	}{
		{name: "creation done with no bump", fleet: spread, steps: []func(*lazyHarness){
			func(h *lazyHarness) { h.place(500, vector.New(1, 0.5), cluster.VMCreating) },
			func(h *lazyHarness) {
				h.eachVM(500, func(_ *cluster.PM, vm *cluster.VM) { vm.State = cluster.VMRunning })
			},
		}, seen: func(h *lazyHarness) bool { _, ok := coldSweep(h.sides[1], h.params.MIGThreshold)[500]; return ok }},
		{name: "timed Running→Migrating after a pass, then the cut-over", fleet: timedFleet, params: oneRound, steps: []func(*lazyHarness){
			func(h *lazyHarness) { timed = h.beginTimed() },
			func(h *lazyHarness) { h.endTimed(timed, false) },
		}, seen: (*lazyHarness).migratingBound},
		{name: "a failure that unwinds Migrating→Running", fleet: timedFleet, params: oneRound, steps: []func(*lazyHarness){
			func(h *lazyHarness) { timed = h.beginTimed() },
			func(h *lazyHarness) { h.endTimed(timed[:1], true) },
		}, seen: (*lazyHarness).migratingBound},
		{name: "timed moves on a spread fleet", fleet: spread, steps: []func(*lazyHarness){
			func(h *lazyHarness) { timed = h.beginTimed() },
			func(h *lazyHarness) { h.endTimed(timed, false) },
			func(h *lazyHarness) { timed = h.beginTimed() },
			func(h *lazyHarness) { h.endTimed(timed[:1], true) },
		}},
		{name: "VMs below R^MIN outgrow a bucket", fleet: small, steps: []func(*lazyHarness){
			func(h *lazyHarness) {
				for id := cluster.VMID(700); id < 706; id++ {
					h.place(id, vector.V{1}, cluster.VMRunning)
				}
			},
			func(h *lazyHarness) { h.place(706, vector.V{1}, cluster.VMRunning) },
		}, seen: func(h *lazyHarness) bool {
			ro := h.sides[0].roster
			return ro != nil && rosterPlaced(ro) > 3 && len(ro.ents) > 6
		}},
		{name: "a reliability write", fleet: spread, steps: []func(*lazyHarness){
			func(h *lazyHarness) {
				h.eachPM(MigratableVMs(h.sides[0].DC)[0].Host, func(pm *cluster.PM) { pm.SetReliability(pm.Reliability() * 0.5) })
			},
		}},
		{name: "equal-cur hosts", fleet: tieFleet, seen: func(h *lazyHarness) bool {
			ro := h.sides[1].syncRoster()
			for _, hosts := range ro.hosts {
				for i := 1; i < len(hosts); i++ {
					if ro.pms[hosts[i-1]].cur == ro.pms[hosts[i]].cur {
						return true
					}
				}
			}
			return false
		}},
		{name: "the sole host first in a shape's order", fleet: soleFirst, seen: func(h *lazyHarness) bool {
			ctx := h.sides[1]
			x, ro := ctx.candidates(), ctx.syncRoster()
			for sid, hosts := range ro.hosts {
				if len(hosts) < 2 {
					continue
				}
				cs := x.shape(int32(sid))
				cs.scanTop(ctx.pass)
				first, second, t := ro.pms[hosts[0]].cur, ro.pms[hosts[1]].cur, cs.top
				if hosts[0] == t.sole && t.v2/first <= h.params.MIGThreshold && t.v1/second > h.params.MIGThreshold {
					return true
				}
			}
			return false
		}},
		{name: "an untracked shape", fleet: lazyFleet, steps: []func(*lazyHarness){
			func(h *lazyHarness) { h.place(600, vector.New(1, 1.5), cluster.VMRunning) },
		}, seen: func(h *lazyHarness) bool {
			if !h.hosts(600) {
				return false
			}
			for _, sh := range h.sides[0].cand.shapeList {
				if sh.demand.Equal(vector.New(1, 1.5)) {
					return false
				}
			}
			return true
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			params := row.params
			if params == (Params{}) {
				params = Params{MIGThreshold: 1.05, MIGRound: 2}
			}
			h := newLazyHarness(t, row.fleet, params)
			seen := false
			look := func() { seen = seen || (row.seen != nil && row.seen(h)) }
			look()
			h.pass()
			for _, step := range row.steps {
				step(h)
				look()
				h.pass()
			}
			if row.seen != nil && !seen {
				t.Error("the row's case never occurred")
			}
			if h.log.moves == 0 {
				t.Error("no pass moved anything")
			}
		})
	}
}

// hosts reports whether VM id is placed on the lead side.
func (h *lazyHarness) hosts(id cluster.VMID) bool {
	for _, pm := range h.sides[0].DC.PMs() {
		if pm.VM(id) != nil {
			return true
		}
	}
	return false
}

// TestBucketInactiveHost: a Running VM on a PM that is not active fails
// every pass by name, with and without a price term, also when nothing has moved since the
// last failed one — while a Creating VM there does not — and the pass after
// the PM is back on runs.
func TestBucketInactiveHost(t *testing.T) {
	for _, factors := range [][]Factor{DefaultFactors(), append(DefaultFactors(), offsetPrices(16))} {
		ctx, vms := spreadState(t, 16, 30, 3)
		pm := ctx.DC.PM(vms[0].Host)
		pm.SetState(cluster.PMOff)
		want := fmt.Sprintf("hosted on inactive PM %d", pm.ID)
		for pass := range 2 {
			if _, err := ConsolidateWith(ctx, factors, DefaultParams(), MatrixOptions{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("pass %d over a Running VM on an inactive PM: %v, want %q", pass, err, want)
			}
		}
		if err := ctx.CheckColumns(); err != nil {
			t.Fatal(err)
		}
		for _, vm := range pm.VMs() {
			vm.State = cluster.VMCreating
		}
		ctx.SelfAudit = true
		if _, err := ConsolidateWith(ctx, factors, DefaultParams(), MatrixOptions{}); err != nil {
			t.Fatalf("Creating VMs on an inactive PM: %v", err)
		}
		pm.SetState(cluster.PMOn)
		for _, vm := range pm.VMs() {
			vm.State = cluster.VMRunning
		}
		if _, err := ConsolidateWith(ctx, factors, DefaultParams(), MatrixOptions{}); err != nil {
			t.Fatalf("the PM back on: %v", err)
		}
		if ctx.roster.offline != 0 {
			t.Error("the roster still sees an inactive PM with VMs")
		}
	}
}

// packedFleet is m one-dimensional six-core PMs, every one on and full: a
// two-core VM and four one-core VMs each, IDs ascending PM by PM. Any
// departure leaves room only on its own host, whose hosted-cell probability
// drops below everybody's: for either shape the walk meets that host first
// — alone in the top group for the one-core shape, bounded by the runner-up,
// nobody — and stops at the next, bounded at 1.
func packedFleet(m int) *Context {
	class := &cluster.PMClass{Name: "six", Capacity: vector.V{6}, ActivePower: 80, IdlePower: 40, Reliability: 1}
	dc := cluster.MustNew(cluster.Config{RMin: vector.V{1}, Groups: []cluster.Group{{Class: class, Count: m}}})
	id := cluster.VMID(1)
	for _, pm := range dc.PMs() {
		pm.SetState(cluster.PMOn)
		for _, cores := range []float64{2, 1, 1, 1, 1} {
			vm := cluster.NewVM(id, vector.V{cores}, 400, 400, 0)
			if err := pm.Host(vm); err != nil {
				panic(err)
			}
			vm.State = cluster.VMRunning
			id++
		}
	}
	return NewContext(dc)
}

// TestEmptyPassCostsWhatChanged: on a fleet of 2,500 Running columns at
// rest, the pass after one departure re-reads one PM and visits at most two
// cells per shape — an O(columns) pass would not go unnoticed.
func TestEmptyPassCostsWhatChanged(t *testing.T) {
	ctx := packedFleet(500)
	ctx.Obs = obs.New()
	pass := func() int {
		t.Helper()
		moves, err := ConsolidateWith(ctx, DefaultFactors(), DefaultParams(), MatrixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return len(moves)
	}
	if pass() != 0 {
		t.Fatal("the packed fleet moved")
	}
	vms := MigratableVMs(ctx.DC)
	if len(vms) < 2000 {
		t.Fatalf("%d Running columns", len(vms))
	}
	count := func(name string) int64 { return ctx.Obs.Counter(name).Value() }
	rereads, cells := count("core.roster_resynced_pms"), count("core.bound_cells")
	victim := vms[len(vms)/2+1]
	if err := ctx.DC.PM(victim.Host).Evict(victim); err != nil {
		t.Fatal(err)
	}
	if pass() != 0 {
		t.Fatal("the pass after a departure moved")
	}
	if n := count("core.roster_resynced_pms") - rereads; n > 2 {
		t.Errorf("the pass re-read %d PMs, want at most 2", n)
	}
	if n, shapes := count("core.bound_cells")-cells, len(ctx.roster.hosts); n > 2*int64(shapes) {
		t.Errorf("the pass visited %d cells over %d shapes, want at most 2 a shape", n, shapes)
	}
	checkBuckets(t, ctx, DefaultParams().MIGThreshold)
}
