package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// tableIIState builds a deterministic mid-simulation snapshot of a
// Table II-mix fleet: all pmCount PMs on, nVMs requests with varied
// demands, estimates, and elapsed runtimes, placed first-fit. Calling it
// twice with the same arguments yields two independent but identical
// states, which the Consolidate equivalence test needs (Algorithm 1
// mutates the fleet it runs on).
func tableIIState(tb testing.TB, pmCount, nVMs int, seed int64) (*Context, []*cluster.VM) {
	tb.Helper()
	return fleetState(tb, pmCount, nVMs, seed, false)
}

// spreadState is tableIIState with the VMs dealt round-robin over the fleet
// instead of packed first-fit, so a consolidation pass has many profitable
// rounds and every round after the first depends on the index and the
// roster re-reading the previous move's endpoints.
func spreadState(tb testing.TB, pmCount, nVMs int, seed int64) (*Context, []*cluster.VM) {
	tb.Helper()
	return fleetState(tb, pmCount, nVMs, seed, true)
}

func fleetState(tb testing.TB, pmCount, nVMs int, seed int64, spread bool) (*Context, []*cluster.VM) {
	tb.Helper()
	dc := cluster.TableIIFleetScaled(pmCount)
	for _, pm := range dc.PMs() {
		pm.SetState(cluster.PMOn)
	}
	rng := stats.NewRand(seed)
	const now = 7200.0
	var vms []*cluster.VM
	mems := []float64{0.25, 0.5, 1, 2}
	for id := 1; id <= nVMs; id++ {
		demand := vector.New(float64(1+rng.Intn(2)), mems[rng.Intn(len(mems))])
		est := float64(600 + rng.Intn(86400))
		vm := cluster.NewVM(cluster.VMID(id), demand, est, est, 0)
		placed := false
		for i := range dc.PMs() {
			pm := dc.PM(cluster.PMID(i))
			if spread {
				pm = dc.PM(cluster.PMID((i + id) % pmCount))
			}
			if pm.CanHost(vm.Demand) {
				if err := pm.Host(vm); err != nil {
					tb.Fatal(err)
				}
				placed = true
				break
			}
		}
		if !placed {
			continue
		}
		vm.State = cluster.VMRunning
		vm.StartTime = float64(rng.Intn(7000))
		vms = append(vms, vm)
	}
	if len(vms) < nVMs/2 {
		tb.Fatalf("only placed %d of %d VMs", len(vms), nVMs)
	}
	return &Context{DC: dc, Now: now}, vms
}

// edgeState is tableIIState hardened for the zero short circuits: a
// zero-reliability PM (p_rel = 0 must come out as exact +0 whichever path
// multiplies it) and a batch of expired-estimate VMs (a remaining estimate
// below the migration overhead zeroes p_vir on every non-host row).
func edgeState(tb testing.TB, pmCount, nVMs int, seed int64) (*Context, []*cluster.VM) {
	tb.Helper()
	ctx, vms := tableIIState(tb, pmCount, nVMs, seed)
	pms := ctx.DC.PMs()
	pms[len(pms)/2].SetReliability(0)
	for i := 0; i < len(vms); i += 7 {
		// Elapsed runtime beyond the estimate: RemainingEstimate clamps
		// at zero.
		vms[i].EstimatedRuntime = 1
		vms[i].StartTime = 0
	}
	return ctx, vms
}

// denseConsolidate runs Algorithm 1 over ctx's running VMs on the cold
// reference: every round a newReference — the build auditRound holds each
// lazy round to — whose Best above MIG_threshold moves through Migrate.
// ConsolidateWith runs the lazy rounds, so this is the reference side of
// every engine differential in the package, for any factor list.
func denseConsolidate(tb testing.TB, ctx *Context, factors []Factor, params Params) []Move {
	tb.Helper()
	moves, _ := denseRounds(tb, ctx, factors, params)
	return moves
}

// denseRounds is denseConsolidate with each move's alternatives, as
// MoveAlternatives keeps them (columnAlternatives).
func denseRounds(tb testing.TB, ctx *Context, factors []Factor, params Params) (moves []Move, alts [][]Placement) {
	tb.Helper()
	for round := 1; round <= params.MIGRound; round++ {
		ref, err := newReference(ctx, factors)
		if err != nil {
			tb.Fatal(err)
		}
		c := ref.Best()
		if c < 0 || !(ref[c].gain > params.MIGThreshold) {
			break
		}
		col := ref[c]
		vm := col.vm
		alts = append(alts, columnAlternatives(ctx, factors, vm, col.cur))
		moves = append(moves, Move{VM: vm.ID, From: vm.Host, To: col.best, Gain: col.gain, Round: round})
		if err := Migrate(vm, ctx.DC.PM(vm.Host), ctx.DC.PM(col.best)); err != nil {
			tb.Fatal(err)
		}
	}
	return moves, alts
}

// columnAlternatives is the reference for a moved column's alternatives:
// its cell-by-cell ranking (RankPlacements: probability desc, ID asc)
// without its host, normalized by its hosted cell cur and cut to altDepth —
// or, when cur is not positive, the lowest-ID PM of positive probability
// alone, at +Inf.
func columnAlternatives(ctx *Context, factors []Factor, vm *cluster.VM, cur float64) []Placement {
	var out []Placement
	for _, pl := range RankPlacements(ctx, factors, vm) {
		switch {
		case pl.PM.ID == vm.Host:
		case !(cur > 0):
			if len(out) == 0 || pl.PM.ID < out[0].PM.ID {
				out = []Placement{{PM: pl.PM, Probability: math.Inf(1)}}
			}
		case len(out) < altDepth:
			out = append(out, Placement{PM: pl.PM, Probability: pl.Probability / cur})
		}
	}
	return out
}

// assertMovesEqual requires two Algorithm 1 move streams to match move for
// move: VM, endpoints, bit-identical gains, rounds.
func assertMovesEqual(tb testing.TB, want, got []Move) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("move counts differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			tb.Fatalf("move %d: want %+v, got %+v", i, want[i], got[i])
		}
	}
}

// offsetFactor is a user-supplied extra factor (pure, PM-dependent): no run
// takes it (CheckFactors), so only the cold reference evaluates it, and
// offsetPrices is its stand-in on the index.
type offsetFactor struct{}

func (offsetFactor) Name() string { return "offset" }

func (offsetFactor) Probability(_ *Context, _ *cluster.VM, pm *cluster.PM, _ bool) float64 {
	return 1 - float64(int(pm.ID)%5)/100
}

// offsetPrices is a PriceFactor over a fleet of pms PMs that prices PM i
// at 1 + (i mod 5) / 100, so every fifth PM is in the cheapest region.
func offsetPrices(pms int) *PriceFactor {
	regions := []string{"r0", "r1", "r2", "r3", "r4"}
	prices := make(map[string]float64, len(regions))
	for i, r := range regions {
		prices[r] = 1 + float64(i)/100
	}
	f := NewPriceFactor(regions, regions[0], FlatPrices(prices))
	for id := range pms {
		f.Assign(cluster.PMID(id), regions[id%len(regions)])
	}
	return f
}

// opaque hides a factor's concrete type from the candidate index (formOf),
// so a list of opaque factors is outside the covered family: the cold
// reference, which reads every factor through the Factor interface, is the
// one path that evaluates it.
type opaque struct{ Factor }

func opaqueFactors(factors []Factor) []Factor {
	out := make([]Factor, len(factors))
	for i, f := range factors {
		out[i] = opaque{f}
	}
	return out
}

// assertColumnsRescan requires every column of ref to equal a brute-force
// Joint scan of ctx's fleet: the normalizer the host's hosted cell, the best
// the lowest-ID PM of the largest off-host probability (of any positive
// one when the host's is 0) and its gain.
func assertColumnsRescan(t *testing.T, ctx *Context, factors []Factor, ref reference) {
	t.Helper()
	for _, col := range ref {
		vm := col.vm
		cur := Joint(ctx, factors, vm, ctx.DC.PM(vm.Host), true)
		best, p := cluster.NoPM, 0.0
		for _, pm := range ctx.DC.ActivePMs() {
			if q := Joint(ctx, factors, vm, pm, false); pm.ID != vm.Host && q > 0 && (q > p || best < 0) && (cur > 0 || best < 0) {
				best, p = pm.ID, q
			}
		}
		if col.cur != cur || col.best != best || col.p != p || col.gain != normGain(int(best), p, cur) {
			t.Fatalf("VM %d: column (cur %v, PM %d, p %v, gain %v), rescan (cur %v, PM %d, p %v)",
				vm.ID, col.cur, col.best, col.p, col.gain, cur, best, p)
		}
	}
}

// TestKernelEquivalence holds the cold reference to a brute-force Joint
// scan on the Table II fleet, for the default factors, for ablation
// subsets, for a user factor composed on top and for a list of user
// factors alone — including zero-reliability rows and expired-estimate
// columns, where Joint takes its literal-zero short circuit — and, for
// each list the candidate index evaluates, holds the index's first lazy
// round to the reference (CheckProof: every column's group scan, the
// bounds and the choice).
func TestKernelEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		factors []Factor
	}{
		{"default", DefaultFactors()},
		{"no-vir", []Factor{ResourceFactor{}, ReliabilityFactor{}, EfficiencyFactor{}}},
		{"no-eff", []Factor{ResourceFactor{}, VirtualizationFactor{}, ReliabilityFactor{}}},
		{"no-rel", []Factor{ResourceFactor{}, VirtualizationFactor{}, EfficiencyFactor{}}},
		{"extra-on-top", append(DefaultFactors(), offsetFactor{})},
		{"pure-custom", []Factor{offsetFactor{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, _ := edgeState(t, 100, 260, 7)
			ref, err := newReference(ctx, tc.factors)
			if err != nil {
				t.Fatal(err)
			}
			assertColumnsRescan(t, ctx, tc.factors, ref)
			if CheckFactors(tc.factors) != nil {
				return
			}
			for _, threshold := range []float64{1.05, 1.6} {
				if err := ctx.CheckProof(tc.factors, threshold); err != nil {
					t.Fatalf("threshold %g: %v", threshold, err)
				}
			}
		})
	}
}

// TestKernelEquivalenceConsolidate proves Algorithm 1 produces identical
// move sequences (VM, endpoints, bit-identical gains, rounds) on the Table
// II fleet two ways: what a canonical run executes (the lazy rounds over
// the candidate index), and the cold reference over the paper's factors.
func TestKernelEquivalenceConsolidate(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	ctxFast, _ := spreadState(t, 100, 260, 11)
	ctxCell, _ := spreadState(t, 100, 260, 11)

	fast, err := ConsolidateWith(ctxFast, DefaultFactors(), params, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cell := denseConsolidate(t, ctxCell, DefaultFactors(), params)
	if len(cell) == 0 {
		t.Fatal("consolidation produced no moves; the state is too easy to prove anything")
	}
	assertMovesEqual(t, cell, fast)
	if err := ctxFast.DC.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestKernelArrivalEquivalence checks the arrival column for the paper's
// factors: the ranking (RankPlacements) must equal a naive Joint scan of
// the active PMs, including the unhosted-VM overhead rule (creation only,
// no migration share), and the candidate index's argmax
// (BestPlacementWith) must be the Joint scan's argmax, which is also the
// ranking's head. The kernel subtest passes the factors as a run does.
func TestKernelArrivalEquivalence(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		ctx, _ := tableIIState(t, 100, 200, 13)
		factors := DefaultFactors()
		arrival := cluster.NewVM(9001, vector.New(2, 1), 5400, 5400, ctx.Now)

		ranked := RankPlacements(ctx, factors, arrival)
		if len(ranked) == 0 {
			t.Fatal("no feasible placements for the arrival")
		}
		want := genericBestPlacement(ctx, factors, arrival)
		if best := BestPlacementWith(ctx, factors, arrival, MatrixOptions{}); best != want || best != ranked[0].PM {
			t.Fatalf("BestPlacementWith = %v, Joint scan = %v, RankPlacements[0] = PM%d", pmID(best), pmID(want), ranked[0].PM.ID)
		}

		byPM := make(map[cluster.PMID]float64, len(ranked))
		for _, pl := range ranked {
			byPM[pl.PM.ID] = pl.Probability
		}
		n := 0
		for _, pm := range ctx.DC.ActivePMs() {
			want := Joint(ctx, factors, arrival, pm, false)
			if want > 0 {
				n++
			}
			if got := byPM[pm.ID]; got != want {
				t.Fatalf("PM %d: ranked arrival probability %v != Joint %v", pm.ID, got, want)
			}
		}
		if n != len(ranked) {
			t.Fatalf("ranking has %d entries, Joint scan found %d feasible", len(ranked), n)
		}
	})
}

// TestMatrixTrackersMatchRebuildAfterRandomApplies walks a randomized
// sequence of moves — each to a PM of positive probability off a random
// column's host, moved through Migrate — and after every move holds a cold
// reference to a brute-force Joint scan (assertColumnsRescan: lowest PM on
// ties, +Inf for a zero normalizer). The kernel subtest passes the factors
// as a run does.
func TestMatrixTrackersMatchRebuildAfterRandomApplies(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		ctx, _ := tableIIState(t, 100, 150, 23)
		factors := DefaultFactors()
		rng := stats.NewRand(42)
		applied := 0
		for step := 0; step < 40; step++ {
			ref, err := newReference(ctx, factors)
			if err != nil {
				t.Fatal(err)
			}
			assertColumnsRescan(t, ctx, factors, ref)
			vm := ref[rng.Intn(len(ref))].vm
			var to []*cluster.PM
			for _, pm := range ctx.DC.ActivePMs() {
				if pm.ID != vm.Host && Joint(ctx, factors, vm, pm, false) > 0 {
					to = append(to, pm)
				}
			}
			if len(to) == 0 {
				continue
			}
			if err := Migrate(vm, ctx.DC.PM(vm.Host), to[rng.Intn(len(to))]); err != nil {
				t.Fatal(err)
			}
			applied++
		}
		if applied < 10 {
			t.Fatalf("only %d random moves applied; property barely exercised", applied)
		}
		if err := ctx.DC.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// TestConsolidateZeroCurrentProbability exercises the curProb == 0 → +Inf
// gain path end-to-end through Algorithm 1 on the cold reference with the
// real factors, passed in the kernel subtest as a run passes them: a VM
// whose host's reliability has decayed to zero has a zero-probability
// placement, so any feasible alternative must be taken regardless of
// MIG_threshold, with an infinite recorded gain. (The lazy rounds' twin
// is TestSparseConsolidateZeroCurrentProbability.)
func TestConsolidateZeroCurrentProbability(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		dc := cluster.TableIIFleetScaled(4)
		for _, pm := range dc.PMs() {
			pm.SetState(cluster.PMOn)
		}
		vm := cluster.NewVM(1, vector.New(1, 0.5), 36000, 36000, 0)
		host := dc.PM(0)
		if err := host.Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
		// The failure model decays per-PM reliability; zero means
		// the current placement's joint probability is zero.
		host.SetReliability(0)

		ctx := NewContext(dc).At(100)
		moves := denseConsolidate(t, ctx, DefaultFactors(), DefaultParams())
		if len(moves) != 1 {
			t.Fatalf("moves = %+v, want exactly one rescue migration", moves)
		}
		mv := moves[0]
		if mv.VM != 1 || mv.From != 0 || mv.To == 0 {
			t.Errorf("move = %+v, want VM1 off PM0", mv)
		}
		if !math.IsInf(mv.Gain, 1) {
			t.Errorf("gain = %v, want +Inf (zero-probability current placement)", mv.Gain)
		}
		if vm.Host == 0 {
			t.Error("VM still on the unreliable host")
		}
		if err := dc.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}
