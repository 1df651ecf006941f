package cluster

import (
	"errors"
	"testing"

	"repro/internal/vector"
)

func walkFixture(t *testing.T) *Datacenter {
	t.Helper()
	fast := FastClass
	dc := MustNew(Config{
		RMin:   TableIIRMin.Clone(),
		Groups: []Group{{Class: &fast, Count: 3}},
	})
	for _, pm := range dc.PMs() {
		pm.SetState(PMOn)
	}
	// Host out of ID order to prove the walk sorts by ID, not insertion.
	for _, pair := range [][2]int{{2, 5}, {0, 3}, {2, 1}, {1, 4}} {
		vm := NewVM(VMID(pair[1]), vector.New(1, 0.5), 100, 100, 0)
		if err := dc.PM(PMID(pair[0])).Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = VMRunning
	}
	return dc
}

func TestWalkPlacementsDeterministicOrder(t *testing.T) {
	dc := walkFixture(t)
	var got [][2]int
	err := dc.WalkPlacements(func(pm *PM, vm *VM) error {
		got = append(got, [2]int{int(pm.ID), int(vm.ID)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 3}, {1, 4}, {2, 1}, {2, 5}}
	if len(got) != len(want) {
		t.Fatalf("visited %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestWalkPlacementsStopsOnError(t *testing.T) {
	dc := walkFixture(t)
	boom := errors.New("boom")
	visits := 0
	err := dc.WalkPlacements(func(pm *PM, vm *VM) error {
		visits++
		if visits == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if visits != 2 {
		t.Fatalf("visited %d pairs after error, want 2", visits)
	}
}

func TestVMsByState(t *testing.T) {
	dc := walkFixture(t)
	// Flip one VM to creating, one to migrating.
	flipped := 0
	_ = dc.WalkPlacements(func(pm *PM, vm *VM) error {
		switch flipped {
		case 0:
			vm.State = VMCreating
		case 1:
			vm.State = VMMigrating
		}
		flipped++
		return nil
	})
	byState := dc.VMsByState()
	if byState[VMCreating] != 1 || byState[VMMigrating] != 1 || byState[VMRunning] != 2 {
		t.Fatalf("VMsByState = %v, want 1 creating, 1 migrating, 2 running", byState)
	}
	if byState[VMQueued] != 0 || byState[VMFinished] != 0 {
		t.Fatalf("VMsByState reports unhosted states: %v", byState)
	}
}
