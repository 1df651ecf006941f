package cluster

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/vector"
)

func twoClassDC(t *testing.T) *Datacenter {
	t.Helper()
	return TableIIFleet()
}

func TestNewValidation(t *testing.T) {
	fast := FastClass
	cases := map[string]Config{
		"no groups":    {RMin: vector.New(1, 1)},
		"nil class":    {RMin: vector.New(1, 1), Groups: []Group{{Count: 1}}},
		"bad rmin":     {RMin: vector.New(-1, 1), Groups: []Group{{Class: &fast, Count: 1}}},
		"zero count":   {RMin: vector.New(1, 1), Groups: []Group{{Class: &fast, Count: 0}}},
		"dim mismatch": {RMin: vector.New(1), Groups: []Group{{Class: &fast, Count: 1}}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestTableIIFleetShape(t *testing.T) {
	d := twoClassDC(t)
	if d.Size() != 100 {
		t.Fatalf("Size = %d, want 100", d.Size())
	}
	fast, slow := 0, 0
	for _, p := range d.PMs() {
		switch p.Class.Name {
		case "fast":
			fast++
		case "slow":
			slow++
		}
		if p.State() != PMOff {
			t.Errorf("PM %d starts %s, want off", p.ID, p.State())
		}
	}
	if fast != 25 || slow != 75 {
		t.Errorf("fast/slow = %d/%d, want 25/75", fast, slow)
	}
}

func TestTableIIConstants(t *testing.T) {
	// Spot-check that the encoded class constants match Table II.
	if FastClass.CreationTime != 30 || SlowClass.CreationTime != 40 {
		t.Error("creation times do not match Table II")
	}
	if FastClass.MigrationTime != 40 || SlowClass.MigrationTime != 45 {
		t.Error("migration times do not match Table II")
	}
	if FastClass.OnOffOverhead != 50 || SlowClass.OnOffOverhead != 55 {
		t.Error("on/off overheads do not match Table II")
	}
	if FastClass.ActivePower != 400 || FastClass.IdlePower != 240 {
		t.Error("fast power does not match Table II")
	}
	if SlowClass.ActivePower != 300 || SlowClass.IdlePower != 180 {
		t.Error("slow power does not match Table II")
	}
	if !FastClass.Capacity.Equal(vector.New(8, 8)) || !SlowClass.Capacity.Equal(vector.New(4, 4)) {
		t.Error("capacities do not match Table II (2x4 cores/8G, 2x2 cores/4G)")
	}
}

func TestEfficiency(t *testing.T) {
	d := twoClassDC(t)
	// rmin = (1, 0.25): fast W=8 -> 400/8 = 50 W/VM; slow W=4 -> 300/4 = 75 W/VM.
	// min per-VM power = 50, so eff_fast = 1, eff_slow = 50/75 = 2/3.
	var fast, slow *PM
	for _, p := range d.PMs() {
		if p.Class.Name == "fast" && fast == nil {
			fast = p
		}
		if p.Class.Name == "slow" && slow == nil {
			slow = p
		}
	}
	if got := d.Efficiency(fast); math.Abs(got-1) > 1e-12 {
		t.Errorf("eff_fast = %g, want 1", got)
	}
	if got := d.Efficiency(slow); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("eff_slow = %g, want 2/3", got)
	}
}

func TestPMAccessors(t *testing.T) {
	d := twoClassDC(t)
	if d.PM(0) == nil || d.PM(99) == nil {
		t.Error("in-range PM lookup failed")
	}
	if d.PM(-1) != nil || d.PM(100) != nil {
		t.Error("out-of-range PM lookup should be nil")
	}
	if got := d.RMinShared(); !got.Equal(TableIIRMin) {
		t.Errorf("RMin = %v", got)
	}
}

func TestStateCountsAndSets(t *testing.T) {
	d := twoClassDC(t)
	d.PM(0).SetState(PMOn)
	d.PM(1).SetState(PMOn)
	d.PM(2).SetState(PMBooting)
	d.PM(3).SetState(PMFailed)

	if got := d.ActiveCount(); got != 3 {
		t.Errorf("ActiveCount = %d, want 3", got)
	}
	if got := len(d.ActivePMs()); got != 3 {
		t.Errorf("ActivePMs = %d, want 3", got)
	}
	if got := len(slices.DeleteFunc(slices.Clone(d.pms), func(p *PM) bool { return p.state != PMOff })); got != 96 {
		t.Errorf("off PMs = %d, want 96 (failed PM excluded)", got)
	}

	vm := NewVM(1, vector.New(1, 1), 10, 10, 0)
	if err := d.PM(0).Host(vm); err != nil {
		t.Fatal(err)
	}
	if got := d.NonIdleCount(); got != 1 {
		t.Errorf("NonIdleCount = %d, want 1", got)
	}
	if got := len(slices.DeleteFunc(slices.Clone(d.pms), func(p *PM) bool { return !p.Idle() })); got != 1 { // PM 1 on+empty; booting PM not idle
		t.Errorf("idle PMs = %d, want 1", got)
	}
	if got := d.VMCount(); got != 1 {
		t.Errorf("VMCount = %d, want 1", got)
	}
}

func TestAppendVMsInStateSorted(t *testing.T) {
	d := twoClassDC(t)
	d.PM(0).SetState(PMOn)
	d.PM(50).SetState(PMOn)
	for _, pair := range []struct {
		pm PMID
		vm VMID
		st VMState
	}{{50, 9, VMRunning}, {0, 3, VMRunning}, {0, 5, VMCreating}, {0, 7, VMRunning}} {
		vm := NewVM(pair.vm, vector.New(1, 0.5), 10, 10, 0)
		vm.State = pair.st
		if err := d.PM(pair.pm).Host(vm); err != nil {
			t.Fatal(err)
		}
	}
	vms := d.AppendVMsInState([]*VM{nil}, VMRunning)
	if len(vms) != 4 || vms[0] != nil || vms[1].ID != 3 || vms[2].ID != 7 || vms[3].ID != 9 {
		t.Errorf("AppendVMsInState = %v", vms)
	}
}

func TestAverageVMsPerPM(t *testing.T) {
	d := twoClassDC(t)
	if got := d.AverageVMsPerPM(2.5); got != 2.5 {
		t.Errorf("cold-start fallback = %g", got)
	}
	d.PM(0).SetState(PMOn)
	d.PM(1).SetState(PMOn)
	for i := VMID(0); i < 3; i++ {
		if err := d.PM(0).Host(NewVM(i, vector.New(1, 0.5), 10, 10, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PM(1).Host(NewVM(10, vector.New(1, 0.5), 10, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if got := d.AverageVMsPerPM(0); got != 2 { // 4 VMs / 2 non-idle PMs
		t.Errorf("AverageVMsPerPM = %g, want 2", got)
	}
}

func TestCheckInvariantsClean(t *testing.T) {
	d := twoClassDC(t)
	d.PM(0).SetState(PMOn)
	if err := d.PM(0).Host(NewVM(1, vector.New(2, 1), 10, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	d := twoClassDC(t)
	d.PM(0).SetState(PMOn)
	vm := NewVM(1, vector.New(2, 1), 10, 10, 0)
	if err := d.PM(0).Host(vm); err != nil {
		t.Fatal(err)
	}

	// Corrupt usage accounting.
	d.PM(0).Used[0] = 7
	if err := d.CheckInvariants(); err == nil {
		t.Error("corrupted usage not detected")
	}
	d.PM(0).Used[0] = 2

	// VM host mismatch.
	vm.Host = 5
	if err := d.CheckInvariants(); err == nil {
		t.Error("host mismatch not detected")
	}
	vm.Host = 0

	// PM off while hosting.
	d.PM(0).SetState(PMOff)
	if err := d.CheckInvariants(); err == nil {
		t.Error("off PM hosting VMs not detected")
	}
	d.PM(0).SetState(PMOn)

	// Duplicate VM across PMs: a second object with vm's ID, consistent
	// with PM 1 on its own.
	d.PM(1).SetState(PMOn)
	vmOK := NewVM(1, vector.New(2, 1), 10, 10, 0)
	vmOK.Host = 1
	d.PM(1).vms = append(d.PM(1).vms, vmOK)
	d.PM(1).Used.AddInPlace(vmOK.Demand)
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "VM 1 on both PM 0 and PM 1") {
		t.Errorf("duplicate VM: CheckInvariants = %v", err)
	}
	d.PM(1).vms = d.PM(1).vms[:0]
	d.PM(1).Used.SubInPlace(vmOK.Demand)

	// A hosted list out of ID order, and one that repeats an ID.
	vm2 := NewVM(2, vector.New(2, 1), 10, 10, 0)
	if err := d.PM(0).Host(vm2); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("clean two-VM PM flagged: %v", err)
	}
	list := d.PM(0).vms
	list[0], list[1] = list[1], list[0]
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "PM 0 lists VM 1 after VM 2, out of ID order") {
		t.Errorf("out-of-order list: CheckInvariants = %v", err)
	}
	list[0], list[1] = vm, vm
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "PM 0 lists VM 1 twice") {
		t.Errorf("repeated ID: CheckInvariants = %v", err)
	}
}

func TestTableIIFleetScaled(t *testing.T) {
	d := TableIIFleetScaled(40)
	if d.Size() != 40 {
		t.Errorf("Size = %d, want 40", d.Size())
	}
	counts := map[string]int{}
	for _, p := range d.PMs() {
		counts[p.Class.Name]++
	}
	if counts["fast"] != 10 || counts["slow"] != 30 {
		t.Errorf("class mix = %v, want 10/30", counts)
	}
	if d2 := TableIIFleetScaled(1); d2.Size() < 2 {
		t.Error("degenerate size should be clamped to >= 2")
	}

	// At the paper's size the scaled fleet is the Table II fleet, machine
	// for machine: the CLIs build -nodes 100 through it like any other.
	ref, got := TableIIFleet().PMs(), TableIIFleetScaled(100).PMs()
	if len(got) != len(ref) {
		t.Fatalf("scaled(100) has %d PMs, Table II %d", len(got), len(ref))
	}
	for i, p := range ref {
		if got[i].ID != p.ID || got[i].Class.Name != p.Class.Name {
			t.Errorf("PM %d: scaled(100) is %s #%d, Table II %s #%d",
				i, got[i].Class.Name, got[i].ID, p.Class.Name, p.ID)
		}
	}
}

func TestFleetsAreIndependent(t *testing.T) {
	a, b := TableIIFleet(), TableIIFleet()
	a.PM(0).Class.Reliability = 0.5
	if b.PM(0).Class.Reliability == 0.5 {
		t.Error("fleets share class instances")
	}
}

// TestFleetCounters drives random power-state, host and evict writes and
// holds the four fleet counters to a re-count after every one, including a
// PM failing while it still hosts VMs, as the simulator's failure handler
// does before evicting them. Then CheckInvariants must name a counter that
// drifted.
func TestFleetCounters(t *testing.T) {
	d := twoClassDC(t)
	recount := func(step int) {
		t.Helper()
		active, booting, vms, nonIdle := 0, 0, 0, 0
		for _, p := range d.PMs() {
			vms += p.VMCount()
			if p.State() == PMBooting {
				booting++
			}
			if p.Active() {
				active++
				if p.VMCount() > 0 {
					nonIdle++
				}
			}
		}
		if d.ActiveCount() != active || d.BootingCount() != booting || d.VMCount() != vms || d.NonIdleCount() != nonIdle {
			t.Fatalf("step %d: counters active/booting/vms/non-idle %d/%d/%d/%d, re-count %d/%d/%d/%d", step,
				d.ActiveCount(), d.BootingCount(), d.VMCount(), d.NonIdleCount(), active, booting, vms, nonIdle)
		}
	}
	states := []PMState{PMOff, PMBooting, PMOn, PMShuttingDown, PMFailed}
	rng := stats.NewStream(3)
	next := VMID(0)
	for step := 0; step < 3000; step++ {
		pm := d.PM(PMID(rng.Intn(d.Size())))
		switch rng.Intn(3) {
		case 0:
			s := states[rng.Intn(len(states))]
			if s == PMFailed {
				pm.SetState(s)
				recount(step)
				for _, vm := range pm.VMs() {
					if err := pm.Evict(vm); err != nil {
						t.Fatal(err)
					}
				}
			} else if pm.VMCount() == 0 || s == PMOn || s == PMBooting {
				pm.SetState(s)
			}
		case 1:
			next++
			if vm := NewVM(next, vector.New(1, 0.5), 10, 10, 0); pm.CanHost(vm.Demand) {
				if err := pm.Host(vm); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if vms := pm.VMs(); len(vms) > 0 {
				if err := pm.Evict(vms[rng.Intn(len(vms))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		recount(step)
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	d.booting++
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "booting PMs counter") {
		t.Errorf("drifted booting counter: CheckInvariants = %v, want the counter named", err)
	}
}
