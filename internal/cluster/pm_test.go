package cluster

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/vector"
)

func testClass() *PMClass {
	c := FastClass // copy
	return &c
}

func TestPMClassValidate(t *testing.T) {
	good := testClass()
	if err := good.Validate(); err != nil {
		t.Fatalf("Table II fast class invalid: %v", err)
	}
	bad := []*PMClass{
		{},
		{Name: "x", Capacity: vector.New(-1)},
		{Name: "x", Capacity: vector.Zero(2)},
		{Name: "x", Capacity: vector.New(1), CreationTime: -1, Reliability: 1},
		{Name: "x", Capacity: vector.New(1), ActivePower: 100, IdlePower: 200, Reliability: 1},
		{Name: "x", Capacity: vector.New(1), Reliability: 0},
		{Name: "x", Capacity: vector.New(1), Reliability: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad class %d accepted", i)
		}
	}
}

func TestMaxMinimalVMs(t *testing.T) {
	fast := testClass() // 8 cores, 8 GB
	if got := fast.MaxMinimalVMs(vector.New(1, 0.25)); got != 8 {
		t.Errorf("fast W_j = %d, want 8 (CPU-bound)", got)
	}
	slow := SlowClass
	if got := slow.MaxMinimalVMs(vector.New(1, 0.25)); got != 4 {
		t.Errorf("slow W_j = %d, want 4", got)
	}
	if got := fast.MaxMinimalVMs(vector.New(16, 1)); got != 0 {
		t.Errorf("oversized rmin W_j = %d, want 0", got)
	}
	if got := fast.MaxMinimalVMs(vector.Zero(2)); got != 1 {
		t.Errorf("zero rmin W_j = %d, want 1", got)
	}
}

func TestPMHostEvict(t *testing.T) {
	pm := NewPM(0, testClass())
	pm.SetState(PMOn)
	vm := NewVM(1, vector.New(2, 1), 100, 100, 0)

	if err := pm.Host(vm); err != nil {
		t.Fatalf("Host: %v", err)
	}
	if vm.Host != 0 || !pm.HasVM(1) || pm.VMCount() != 1 {
		t.Error("Host bookkeeping wrong")
	}
	if !pm.Used.Equal(vector.New(2, 1)) {
		t.Errorf("Used = %v", pm.Used)
	}
	if err := pm.Evict(vm); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if vm.Host != NoPM || pm.VMCount() != 0 || !pm.Used.IsZero() {
		t.Error("Evict bookkeeping wrong")
	}
}

// TestChangeFeedContract pins the contract in PM.dc's doc comment, which
// every PM cache in core and power relies on: each write to Used, state or
// reliability names the PM in the change feed, a setter that keeps the
// value does not, and no read does. Every bump is delivered to each
// subscriber once per Take, to two subscribers independently, and never to
// a topology clone's feed.
func TestChangeFeedContract(t *testing.T) {
	dc := MustNew(Config{RMin: TableIIRMin.Clone(), Groups: []Group{{Class: testClass(), Count: 2}}})
	pm := dc.PM(1)
	fa, fb := dc.Subscribe(), dc.Subscribe()
	clone := dc.CloneTopology()
	fc := clone.Subscribe()
	bumps := 0
	vm := NewVM(1, vector.New(2, 1), 100, 100, 0)
	hold := vector.New(1, 1)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []struct {
		name  string
		write func()
		moves bool
	}{
		{"SetState", func() { pm.SetState(PMBooting) }, true},
		{"SetState to the same state", func() { pm.SetState(PMBooting) }, false},
		{"SetState on", func() { pm.SetState(PMOn) }, true},
		{"SetReliability", func() { pm.SetReliability(0.5) }, true},
		{"SetReliability to the same value", func() { pm.SetReliability(0.5) }, false},
		{"Host", func() { must(pm.Host(vm)) }, true},
		{"Reserve", func() { must(pm.Reserve(hold)) }, true},
		{"Release", func() { pm.Release(hold) }, true},
		{"Evict", func() { must(pm.Evict(vm)) }, true},
		{"SetState failed", func() { pm.SetState(PMFailed) }, true},
	} {
		w.write()
		if w.moves {
			bumps++
		}
		want := []PMID(nil)
		if w.moves {
			want = []PMID{pm.ID}
		}
		if got := fa.Take(); !slices.Equal(got, want) {
			t.Errorf("%s: feed delivered %v, want %v", w.name, got, want)
		}
		_, _, _, _ = pm.State(), pm.Reliability(), pm.Active(), pm.Utilization()
		_, _, _ = pm.VMs(), pm.Reserved(), pm.CanHost(vm.Demand)
		if got := fa.Take(); len(got) != 0 {
			t.Errorf("after %s: reads and a second Take delivered %v", w.name, got)
		}
	}
	if pm.State() != PMFailed || pm.Reliability() != 0.5 {
		t.Errorf("state %s, reliability %g; want failed, 0.5", pm.State(), pm.Reliability())
	}
	// fb was never taken: it holds the PM once, however many bumps.
	if got := fb.Take(); bumps < 2 || !slices.Equal(got, []PMID{pm.ID}) {
		t.Errorf("untaken subscriber after %d bumps delivered %v, want [%d] once", bumps, got, pm.ID)
	}
	if got := fc.Take(); len(got) != 0 {
		t.Errorf("the clone's feed delivered %v from the original's bumps", got)
	}
	clone.PM(0).SetState(PMOn)
	dc.PM(0).SetState(PMBooting)
	if got := fc.Take(); !slices.Equal(got, []PMID{0}) {
		t.Errorf("the clone's feed delivered %v for its own bump, want [0]", got)
	}
	if got, want := fa.Take(), []PMID{0}; !slices.Equal(got, want) || !fb.Pending(0) || fb.Pending(1) {
		t.Errorf("the original's feeds after a clone bump: %v (want %v), fb pending 0/1 = %v/%v",
			got, want, fb.Pending(0), fb.Pending(1))
	}
}

func TestPMHostErrors(t *testing.T) {
	pm := NewPM(0, testClass())
	vm := NewVM(1, vector.New(2, 1), 100, 100, 0)

	if err := pm.Host(vm); err == nil {
		t.Error("hosting on an off PM should fail")
	}
	pm.SetState(PMOn)
	if err := pm.Host(vm); err != nil {
		t.Fatal(err)
	}
	if err := pm.Host(vm); err == nil {
		t.Error("double-hosting the same VM should fail")
	}
	other := NewPM(1, testClass())
	other.SetState(PMOn)
	if err := other.Host(vm); err == nil {
		t.Error("hosting a VM placed elsewhere should fail")
	}
	big := NewVM(2, vector.New(100, 1), 10, 10, 0)
	if err := pm.Host(big); err == nil {
		t.Error("hosting an oversized VM should fail")
	}
}

func TestPMEvictNotHosted(t *testing.T) {
	pm := NewPM(0, testClass())
	vm := NewVM(1, vector.New(1, 1), 10, 10, 0)
	if err := pm.Evict(vm); err == nil {
		t.Error("evicting a non-hosted VM should fail")
	}
}

func TestPMCanHostStates(t *testing.T) {
	pm := NewPM(0, testClass())
	d := vector.New(1, 1)
	for state, want := range map[PMState]bool{
		PMOff: false, PMBooting: true, PMOn: true,
		PMShuttingDown: false, PMFailed: false,
	} {
		pm.SetState(state)
		if pm.CanHost(d) != want {
			t.Errorf("CanHost in %s = %v, want %v", state, pm.CanHost(d), want)
		}
	}
}

func TestPMVMsSorted(t *testing.T) {
	pm := NewPM(0, testClass())
	pm.SetState(PMOn)
	for _, id := range []VMID{5, 1, 3} {
		if err := pm.Host(NewVM(id, vector.New(1, 1), 10, 10, 0)); err != nil {
			t.Fatal(err)
		}
	}
	vms := pm.VMs()
	if len(vms) != 3 || vms[0].ID != 1 || vms[1].ID != 3 || vms[2].ID != 5 {
		t.Errorf("VMs order = %v", vms)
	}
}

func TestPMIdleAndUtilization(t *testing.T) {
	pm := NewPM(0, testClass()) // cap 8, 8
	pm.SetState(PMOn)
	if !pm.Idle() {
		t.Error("fresh on PM should be idle")
	}
	if pm.Utilization() != 0 {
		t.Error("idle utilization != 0")
	}
	vm := NewVM(1, vector.New(4, 2), 10, 10, 0)
	if err := pm.Host(vm); err != nil {
		t.Fatal(err)
	}
	if pm.Idle() {
		t.Error("hosting PM reported idle")
	}
	want := (4.0 / 8.0) * (2.0 / 8.0)
	if got := pm.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Utilization = %g, want %g", got, want)
	}
}

// TestUtilizationWithMatchesVector holds UtilizationWith to the
// allocating form it replaces, vector.Utilization(Used.Add(d)), bit for
// bit: on a class with a zero-capacity dimension, over loads that leave
// it unused, use it, and overflow or sit at the capacity elsewhere.
func TestUtilizationWithMatchesVector(t *testing.T) {
	class := testClass()
	class.Capacity = vector.New(8, 0, 6.5)
	pm := NewPM(0, class)
	rng := stats.NewStream(3)
	pick := func(cap float64) float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return cap
		default:
			return rng.Float64() * (cap + 1)
		}
	}
	for i := 0; i < 2000; i++ {
		pm.Used = vector.New(pick(8), 0, pick(6.5))
		d := vector.New(pick(8), 0, pick(6.5))
		if rng.Intn(8) == 0 {
			d[1] = rng.Float64() // a demand the PM cannot meet at all
		}
		want := vector.Utilization(pm.Used.Add(d), pm.Class.Capacity)
		if got := pm.UtilizationWith(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("used %v, demand %v: UtilizationWith = %v, vector.Utilization = %v", pm.Used, d, got, want)
		}
	}
}

func TestPMStateString(t *testing.T) {
	for s, want := range map[PMState]string{
		PMOff: "off", PMBooting: "booting", PMOn: "on",
		PMShuttingDown: "shutting-down", PMFailed: "failed",
	} {
		if got := s.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if !strings.Contains(PMState(9).String(), "9") {
		t.Error("unknown state should show its number")
	}
}

func TestPMString(t *testing.T) {
	pm := NewPM(2, testClass())
	if s := pm.String(); !strings.Contains(s, "PM2") || !strings.Contains(s, "fast") {
		t.Errorf("String = %q", s)
	}
}

func TestNewPMPanicsOnNilClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPM(0, nil)
}

// Property: Host then Evict restores exact resource accounting for any
// feasible sequence of small VMs.
func TestQuickHostEvictConservation(t *testing.T) {
	f := func(demands [6][2]uint8) bool {
		pm := NewPM(0, testClass())
		pm.SetState(PMOn)
		var hosted []*VM
		for i, d := range demands {
			vm := NewVM(VMID(i), vector.New(float64(d[0]%4), float64(d[1]%4)/2), 10, 10, 0)
			if pm.CanHost(vm.Demand) {
				if err := pm.Host(vm); err != nil {
					return false
				}
				hosted = append(hosted, vm)
			}
		}
		for _, vm := range hosted {
			if err := pm.Evict(vm); err != nil {
				return false
			}
		}
		return pm.Used.IsZero() && pm.VMCount() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPMLookupAndWalk: VM is HasVM's search with the pointer, and EachVM
// visits exactly VMs' list without allocating.
func TestPMLookupAndWalk(t *testing.T) {
	pm := NewPM(0, &FastClass)
	pm.SetState(PMOn)
	hosted := map[VMID]*VM{}
	for _, id := range []VMID{9, 2, 5} {
		vm := NewVM(id, vector.New(1, 0.5), 100, 100, 0)
		if err := pm.Host(vm); err != nil {
			t.Fatal(err)
		}
		hosted[id] = vm
	}
	for id, vm := range hosted {
		if pm.VM(id) != vm {
			t.Errorf("VM(%d) = %v, want the hosted object", id, pm.VM(id))
		}
	}
	if pm.VM(3) != nil {
		t.Errorf("VM(3) = %v on a PM that does not host it", pm.VM(3))
	}
	if err := pm.Evict(hosted[5]); err != nil {
		t.Fatal(err)
	}
	if pm.VM(5) != nil || pm.HasVM(5) {
		t.Error("an evicted VM is still found")
	}
	delete(hosted, 5)

	seen := 0
	allocs := testing.AllocsPerRun(20, func() {
		seen = 0
		pm.EachVM(func(vm *VM) {
			if hosted[vm.ID] != vm {
				t.Errorf("EachVM visited %v", vm)
			}
			seen++
		})
	})
	if seen != len(hosted) || seen != len(pm.VMs()) {
		t.Errorf("EachVM visited %d VMs, want %d", seen, len(hosted))
	}
	if allocs != 0 {
		t.Errorf("EachVM allocates %.1f times a walk", allocs)
	}
}

// TestEvictForeignVMWithHostedID: evicting a VM object that is not the one
// hosted, though it carries the hosted VM's ID, fails naming both and
// changes nothing — not the hosted list, not Used, not either VM's Host.
// It kills an Evict that finds the VM by ID alone and subtracts the foreign
// demand.
func TestEvictForeignVMWithHostedID(t *testing.T) {
	dc := MustNew(Config{RMin: TableIIRMin.Clone(), Groups: []Group{{Class: testClass(), Count: 1}}})
	pm := dc.PM(0)
	pm.SetState(PMOn)
	hosted := NewVM(1, vector.New(4, 2), 100, 100, 0)
	if err := pm.Host(hosted); err != nil {
		t.Fatal(err)
	}
	feed := dc.Subscribe()
	foreign := NewVM(1, vector.New(1, 0.5), 100, 100, 0)
	foreign.Host = pm.ID
	err := pm.Evict(foreign)
	if err == nil {
		t.Fatal("evicting a foreign VM with a hosted VM's ID succeeded")
	}
	for _, want := range []string{"VM 1 (host 0, demand [1, 0.5])", "VM 1 on PM 0 (host 0, demand [4, 2])"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if pm.VMCount() != 1 || pm.VM(1) != hosted || hosted.Host != 0 || !pm.Used.Equal(vector.New(4, 2)) {
		t.Errorf("a refused Evict changed the PM: %v, VM(1) = %p (hosted %p), hosted.Host = %d", pm, pm.VM(1), hosted, hosted.Host)
	}
	if ids := feed.Take(); len(ids) != 0 {
		t.Errorf("a refused Evict bumped PMs %v", ids)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestHostedListAgainstMap runs seeded random Host and Evict calls on the
// three PMs of a fleet from New — VMs at and below R^MIN, so a PM outgrows
// its W_j window of the slab — and holds every read of the hosted list to a
// reference map after each call: VMs (a copy, in ID order), EachVM
// (ascending), VM, HasVM, VMCount, the fleet's CountVMs and
// CheckInvariants. A fifth of the evictions first try a foreign VM with the
// hosted VM's ID, which must fail. It kills a Host that appends without
// keeping ID order, a search comparing the wrong way, an Evict that leaves
// the slot, a window carved without its cap (a PM's appends overwrite its
// neighbour's VMs), and a VMs that returns the list itself.
func TestHostedListAgainstMap(t *testing.T) {
	dc := MustNew(Config{RMin: TableIIRMin.Clone(), Groups: []Group{{Class: testClass(), Count: 3}}})
	pms := dc.PMs()
	for _, pm := range pms {
		pm.SetState(PMOn)
	}
	const ids = 60
	demands := []vector.V{{1, 0.25}, {0.5, 0.5}, {0.25, 0.125}, {2, 1}}
	vms := make([]*VM, ids)
	for i := range vms {
		vms[i] = NewVM(VMID(i), demands[i%len(demands)], 100, 100, 0)
	}
	ref := make([]map[VMID]*VM, len(pms))
	for i := range ref {
		ref[i] = map[VMID]*VM{}
	}
	rng := stats.NewStream(1)
	grew := false
	for op := 0; op < 3000; op++ {
		vm := vms[rng.Intn(ids)]
		if vm.Host != NoPM {
			pm := pms[vm.Host]
			if rng.Intn(5) == 0 {
				foreign := NewVM(vm.ID, vm.Demand, 100, 100, 0)
				if err := pm.Evict(foreign); err == nil {
					t.Fatalf("op %d: Evict of a foreign VM %d succeeded", op, vm.ID)
				}
			}
			if err := pm.Evict(vm); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			delete(ref[pm.ID], vm.ID)
		} else {
			pm := pms[rng.Intn(len(pms))]
			fits := pm.CanHost(vm.Demand)
			if err := pm.Host(vm); (err == nil) != fits {
				t.Fatalf("op %d: Host of VM %d on PM %d: %v, but CanHost %v", op, vm.ID, pm.ID, err, fits)
			} else if fits {
				ref[pm.ID][vm.ID] = vm
			}
		}
		want := 0
		for _, pm := range pms {
			checkHosted(t, op, pm, ref[pm.ID], ids)
			grew = grew || pm.VMCount() > pm.Class.MaxMinimalVMs(TableIIRMin)
			for id := range ref[pm.ID] {
				if id%3 == 0 {
					want++
				}
			}
		}
		if got := dc.CountVMs(func(vm *VM) bool { return vm.ID%3 == 0 }); got != want {
			t.Fatalf("op %d: CountVMs = %d, the reference %d", op, got, want)
		}
		if err := dc.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if !grew {
		t.Error("no PM outgrew its W_j window: the run does not reach the grow path")
	}
}

// checkHosted holds pm's hosted list to ref.
func checkHosted(t *testing.T, op int, pm *PM, ref map[VMID]*VM, ids int) {
	t.Helper()
	want := make([]*VM, 0, len(ref))
	for _, vm := range ref {
		want = append(want, vm)
	}
	slices.SortFunc(want, func(a, b *VM) int { return int(a.ID) - int(b.ID) })
	got := pm.VMs()
	if !slices.Equal(got, want) || pm.VMCount() != len(want) {
		t.Fatalf("op %d: PM %d VMs = %v (count %d), the reference %v", op, pm.ID, got, pm.VMCount(), want)
	}
	if len(got) > 0 {
		got[0] = nil
		if pm.VMs()[0] != want[0] {
			t.Fatalf("op %d: PM %d VMs is not a copy", op, pm.ID)
		}
	}
	var walked []*VM
	pm.EachVM(func(vm *VM) { walked = append(walked, vm) })
	if !slices.Equal(walked, want) {
		t.Fatalf("op %d: PM %d EachVM visits %v, the reference in ID order %v", op, pm.ID, walked, want)
	}
	for id := VMID(-1); id <= VMID(ids); id++ {
		if pm.VM(id) != ref[id] || pm.HasVM(id) != (ref[id] != nil) {
			t.Fatalf("op %d: PM %d VM(%d) = %v, HasVM %v; the reference %v", op, pm.ID, id, pm.VM(id), pm.HasVM(id), ref[id])
		}
	}
}

// TestHostEvictWithinWjAllocatesNothing: on a PM fresh from New, filling
// the hosted list to W_j in scrambled ID order and emptying it again
// allocates nothing — the list lives in the PM's window of the fleet's
// slab. Each run takes the next fresh PM, so a list that grew on an
// earlier run cannot hide an allocation. It kills a New that carves no
// slab.
func TestHostEvictWithinWjAllocatesNothing(t *testing.T) {
	const runs = 20
	dc := MustNew(Config{RMin: TableIIRMin.Clone(), Groups: []Group{{Class: testClass(), Count: runs + 1}}})
	w := testClass().MaxMinimalVMs(TableIIRMin)
	vms := make([]*VM, w)
	for i := range vms {
		vms[i] = NewVM(VMID((i*5)%w), TableIIRMin, 100, 100, 0) // 5 is prime to W_j = 8
	}
	for _, pm := range dc.PMs() {
		pm.SetState(PMOn)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		pm := dc.PM(PMID(next))
		next++
		for _, vm := range vms {
			if err := pm.Host(vm); err != nil {
				t.Fatal(err)
			}
		}
		for _, vm := range vms {
			if err := pm.Evict(vm); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("hosting and evicting %d VMs allocates %.1f times", w, allocs)
	}
}
