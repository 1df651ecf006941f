package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// bigScenario places many VMs across the Table II fleet so a pass exceeds
// the auto-parallel threshold when lowered.
func bigScenario(t *testing.T) (*Context, []*cluster.VM) {
	t.Helper()
	dc := cluster.TableIIFleet()
	for _, p := range dc.PMs() {
		p.State = cluster.PMOn
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
// auto-sized (Workers == 0) candidate-index kernels forced parallel and
// checks it matches the serial run move for move (the kernels are pure
// functions; only their schedule changes).
func TestParallelConsolidateDeterministic(t *testing.T) {
	run := func(threshold int) []Move {
		old := sparseParallelThreshold
		sparseParallelThreshold = threshold
		defer func() { sparseParallelThreshold = old }()
		ctx, _ := bigScenario(t)
		moves, err := Consolidate(ctx, DefaultFactors(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return moves
	}
	serial := run(1 << 30)
	parallel := run(1)
	assertMovesEqual(t, serial, parallel)
}
