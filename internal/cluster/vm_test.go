package cluster

import (
	"strings"
	"testing"

	"repro/internal/vector"
)

func TestNewVM(t *testing.T) {
	vm := NewVM(7, vector.New(1, 0.5), 3600, 3000, 100)
	if vm.ID != 7 || vm.State != VMQueued || vm.Host != NoPM {
		t.Errorf("NewVM = %v", vm)
	}
	if vm.EstimatedRuntime != 3600 || vm.ActualRuntime != 3000 {
		t.Error("runtimes not stored")
	}
}

func TestNewVMClonesDemand(t *testing.T) {
	d := vector.New(1, 2)
	vm := NewVM(1, d, 10, 10, 0)
	d[0] = 99
	if vm.Demand[0] != 1 {
		t.Error("NewVM aliases caller's demand vector")
	}
}

func TestNewVMPanics(t *testing.T) {
	cases := map[string]func(){
		"negative demand": func() { NewVM(1, vector.New(-1), 1, 1, 0) },
		"negative est":    func() { NewVM(1, vector.New(1), -1, 1, 0) },
		"negative act":    func() { NewVM(1, vector.New(1), 1, -1, 0) },
		"negative submit": func() { NewVM(1, vector.New(1), 1, 1, -1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRemainingEstimate(t *testing.T) {
	vm := NewVM(1, vector.New(1), 1000, 900, 0)
	if got := vm.RemainingEstimate(500); got != 1000 {
		t.Errorf("queued remaining = %g, want full estimate", got)
	}
	vm.State = VMCreating
	if got := vm.RemainingEstimate(500); got != 1000 {
		t.Errorf("creating remaining = %g, want full estimate", got)
	}
	vm.State = VMRunning
	vm.StartTime = 100
	if got := vm.RemainingEstimate(400); got != 700 {
		t.Errorf("running remaining = %g, want 700", got)
	}
	if got := vm.RemainingEstimate(5000); got != 0 {
		t.Errorf("overrun remaining = %g, want 0", got)
	}
	vm.State = VMFinished
	if got := vm.RemainingEstimate(400); got != 0 {
		t.Errorf("finished remaining = %g, want 0", got)
	}
}

func TestPlaced(t *testing.T) {
	vm := NewVM(1, vector.New(1), 10, 10, 0)
	for state, want := range map[VMState]bool{
		VMQueued: false, VMCreating: true, VMRunning: true,
		VMMigrating: true, VMFinished: false,
	} {
		vm.State = state
		if vm.Placed() != want {
			t.Errorf("Placed in %s = %v, want %v", state, vm.Placed(), want)
		}
	}
}

func TestVMStateString(t *testing.T) {
	for s, want := range map[VMState]string{
		VMQueued: "queued", VMCreating: "creating", VMRunning: "running",
		VMMigrating: "migrating", VMFinished: "finished", VMState(42): "VMState(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestVMString(t *testing.T) {
	vm := NewVM(3, vector.New(1, 0.5), 60, 55, 0)
	if s := vm.String(); !strings.Contains(s, "VM3") || !strings.Contains(s, "queued") {
		t.Errorf("String = %q", s)
	}
}
