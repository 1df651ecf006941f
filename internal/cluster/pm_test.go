package cluster

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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

func TestUtilizationLevel(t *testing.T) {
	fast := testClass() // cap (8,8); rmin (1,0.25) -> W=8, umin = (1/8)(0.25/8) = 1/256
	rmin := vector.New(1, 0.25)
	umin := (1.0 / 8.0) * (0.25 / 8.0)

	cases := []struct {
		u     float64
		level int
	}{
		{0, 0},
		{umin / 2, 0},
		{umin, 1},
		{3.99 * umin, 1}, // below 2^2 umin
		{4 * umin, 2},    // exactly 2^2 umin
		{8.99 * umin, 2}, // below 3^2 umin
		{9 * umin, 3},    // 3^2 umin
		{64 * umin, 8},   // 8^2 umin = top level
		{1, 8},           // fully utilized clamps to W_j
	}
	for _, c := range cases {
		level, wj := UtilizationLevel(c.u, fast, rmin)
		if wj != 8 {
			t.Fatalf("W_j = %d, want 8", wj)
		}
		if level != c.level {
			t.Errorf("level(u=%g) = %d, want %d", c.u, level, c.level)
		}
	}
}

func TestUtilizationLevelMatchesHostedMinimalVMs(t *testing.T) {
	// Hosting w minimal VMs must land exactly in level w (Eq. 4).
	rmin := vector.New(1, 0.25)
	for w := 1; w <= 8; w++ {
		pm := NewPM(0, testClass())
		pm.SetState(PMOn)
		for i := 0; i < w; i++ {
			if err := pm.Host(NewVM(VMID(i), rmin, 10, 10, 0)); err != nil {
				t.Fatalf("w=%d host %d: %v", w, i, err)
			}
		}
		if got := pm.UtilizationLevel(rmin); got != w {
			t.Errorf("hosting %d minimal VMs -> level %d", w, got)
		}
	}
}

func TestUtilizationLevelDegenerate(t *testing.T) {
	c := &PMClass{Name: "x", Capacity: vector.New(4), ActivePower: 1, Reliability: 1}
	// rmin with zero component: umin = 0.
	level, wj := UtilizationLevel(0.5, c, vector.Zero(1))
	if level != wj {
		t.Errorf("degenerate busy level = %d, want W_j=%d", level, wj)
	}
	level, _ = UtilizationLevel(0, c, vector.Zero(1))
	if level != 0 {
		t.Errorf("degenerate idle level = %d, want 0", level)
	}
	// Class that cannot host one minimal VM.
	level, wj = UtilizationLevel(0.5, c, vector.New(10))
	if level != 0 || wj != 0 {
		t.Errorf("unhostable class level/wj = %d/%d, want 0/0", level, wj)
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

// Property: utilization level is monotone in utilization.
func TestQuickUtilizationLevelMonotone(t *testing.T) {
	rmin := vector.New(1, 0.25)
	c := testClass()
	f := func(a, b uint16) bool {
		ua := float64(a) / float64(math.MaxUint16)
		ub := float64(b) / float64(math.MaxUint16)
		if ua > ub {
			ua, ub = ub, ua
		}
		la, _ := UtilizationLevel(ua, c, rmin)
		lb, _ := UtilizationLevel(ub, c, rmin)
		return la <= lb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPMLookupAndWalk: VM is HasVM's map lookup with the pointer, and
// EachVM visits exactly VMs' set, in whatever order, without allocating.
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
