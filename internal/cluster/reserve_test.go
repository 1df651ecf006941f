package cluster

import (
	"testing"

	"repro/internal/vector"
)

func TestReserveRelease(t *testing.T) {
	pm := NewPM(0, testClass()) // cap (8,8)
	pm.SetState(PMOn)
	if err := pm.Reserve(vector.New(3, 2)); err != nil {
		t.Fatal(err)
	}
	if !pm.Used.Equal(vector.New(3, 2)) || !pm.Reserved().Equal(vector.New(3, 2)) {
		t.Errorf("after reserve: used=%v reserved=%v", pm.Used, pm.Reserved())
	}
	if pm.Idle() {
		t.Error("reserved PM reported idle")
	}
	pm.Release(vector.New(3, 2))
	if !pm.Used.IsZero() || !pm.Reserved().IsZero() {
		t.Errorf("after release: used=%v reserved=%v", pm.Used, pm.Reserved())
	}
	if !pm.Idle() {
		t.Error("released PM should be idle")
	}
}

func TestReserveRejectsOverflow(t *testing.T) {
	pm := NewPM(0, testClass())
	pm.SetState(PMOn)
	vm := NewVM(1, vector.New(6, 6), 10, 10, 0)
	if err := pm.Host(vm); err != nil {
		t.Fatal(err)
	}
	if err := pm.Reserve(vector.New(3, 3)); err == nil {
		t.Error("overflowing reservation accepted")
	}
	if err := pm.Reserve(vector.New(-1, 0)); err == nil {
		t.Error("negative reservation accepted")
	}
}

func TestReleaseExcessPanics(t *testing.T) {
	pm := NewPM(0, testClass())
	pm.SetState(PMOn)
	if err := pm.Reserve(vector.New(1, 1)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	pm.Release(vector.New(2, 1))
}

func TestReservationBlocksPlacement(t *testing.T) {
	pm := NewPM(0, testClass()) // cap (8,8)
	pm.SetState(PMOn)
	if err := pm.Reserve(vector.New(6, 6)); err != nil {
		t.Fatal(err)
	}
	if pm.CanHost(vector.New(4, 1)) {
		t.Error("reservation did not block placement")
	}
	if !pm.CanHost(vector.New(2, 2)) {
		t.Error("remaining space wrongly blocked")
	}
}

func TestReservationInvariants(t *testing.T) {
	d := TableIIFleet()
	p := d.PM(0)
	p.SetState(PMOn)
	if err := p.Host(NewVM(1, vector.New(2, 1), 10, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(vector.New(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("reservations broke invariants: %v", err)
	}
	// Corrupt the reservation accounting.
	p.reserved[0] = 5
	if err := d.CheckInvariants(); err == nil {
		t.Error("reservation corruption not detected")
	}
}

func TestReservedReturnsCopy(t *testing.T) {
	pm := NewPM(0, testClass())
	pm.SetState(PMOn)
	if err := pm.Reserve(vector.New(1, 1)); err != nil {
		t.Fatal(err)
	}
	r := pm.Reserved()
	r[0] = 99
	if pm.Reserved()[0] == 99 {
		t.Error("Reserved aliases internal state")
	}
}
