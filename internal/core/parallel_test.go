package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// bigScenario places many VMs across the Table II fleet, enough columns
// and PMs for several spans per worker.
func bigScenario(t *testing.T) (*Context, []*cluster.VM) {
	t.Helper()
	dc := cluster.TableIIFleet()
	for _, p := range dc.PMs() {
		p.SetState(cluster.PMOn)
	}
	var vms []*cluster.VM
	id := cluster.VMID(1)
	for _, p := range dc.PMs() {
		for k := 0; k < 3; k++ {
			vm := cluster.NewVM(id, vector.New(1, 0.5), 50000+float64(id%7)*1000, 50000, 0)
			if !p.CanHost(vm.Demand) {
				break
			}
			if err := p.Host(vm); err != nil {
				t.Fatal(err)
			}
			vm.State = cluster.VMRunning
			vms = append(vms, vm)
			id++
		}
	}
	return &Context{DC: dc, Now: 0}, vms
}

// TestParallelConsolidateDeterministic runs full consolidation with the
// candidate-index kernels fanned out on an explicit worker count and checks
// it matches the default (Workers == 0, serial) run move for move (the
// kernels are pure functions; only their schedule changes).
func TestParallelConsolidateDeterministic(t *testing.T) {
	run := func(workers int) []Move {
		ctx, _ := bigScenario(t)
		moves, err := ConsolidateWith(ctx, DefaultFactors(), DefaultParams(), MatrixOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return moves
	}
	assertMovesEqual(t, run(0), run(4))
}

// TestClaimWorkers pins what is left of the worker resolution: zero and one
// are serial, a count above one is honored up to the item count.
func TestClaimWorkers(t *testing.T) {
	for _, tc := range []struct{ requested, items, want int }{
		{0, 100, 1},
		{1, 100, 1},
		{2, 100, 2},
		{7, 100, 7},
		{8, 3, 3},
		{4, 1, 1},
		{4, 0, 1},
	} {
		if got := claimWorkers(tc.requested, tc.items); got != tc.want {
			t.Errorf("claimWorkers(%d, %d) = %d, want %d", tc.requested, tc.items, got, tc.want)
		}
	}
}
