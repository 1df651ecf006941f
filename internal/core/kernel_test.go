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
// rounds and every round after the first depends on the engine's Apply
// repair.
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

// denseConsolidate runs Algorithm 1 over ctx's running VMs on a dense
// Matrix built by constructor name. ConsolidateWith sends a canonical list
// to the lazy rounds, so this is the reference side of every engine
// differential in the package.
func denseConsolidate(tb testing.TB, ctx *Context, factors []Factor, params Params) []Move {
	tb.Helper()
	m, err := NewMatrix(ctx, factors, MigratableVMs(ctx.DC))
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Release()
	moves, err := m.Consolidate(params)
	if err != nil {
		tb.Fatal(err)
	}
	return moves
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

// offsetFactor is a user-supplied extra factor (pure, PM-dependent) used
// to exercise the kernel's generic-composition path.
type offsetFactor struct{}

func (offsetFactor) Name() string { return "offset" }

func (offsetFactor) Probability(_ *Context, _ *cluster.VM, pm *cluster.PM, _ bool) float64 {
	return 1 - float64(int(pm.ID)%5)/100
}

// opaque hides a factor's concrete type from the program compiler, so a
// list of opaque factors runs every term through the Factor interface (the
// program's generic terms), which the specialized terms are compared
// against.
type opaque struct{ Factor }

func opaqueFactors(factors []Factor) []Factor {
	out := make([]Factor, len(factors))
	for i, f := range factors {
		out[i] = opaque{f}
	}
	return out
}

// pathFactors returns the default factors for the named evaluation path:
// "kernel" compiles them, "generic" hides them behind opaque.
func pathFactors(path string) []Factor {
	if path == "generic" {
		return opaqueFactors(DefaultFactors())
	}
	return DefaultFactors()
}

// assertJointFill requires every cell of m to equal Joint for its (VM, PM)
// pair bit for bit: the cell-by-cell reference the compiled program is held
// to, whichever of its terms the factor list compiles to.
func assertJointFill(t *testing.T, m *Matrix) {
	t.Helper()
	for r, pm := range m.pms {
		for c, vm := range m.vms {
			if got, want := m.p[r][c], Joint(m.ctx, m.factors, vm, pm, vm.Host == pm.ID); got != want {
				t.Fatalf("p[%d][%d]: program %v != Joint %v (VM %d on PM %d)", r, c, got, want, vm.ID, pm.ID)
			}
		}
	}
}

// assertMatricesEqual requires bit-identical probabilities and trackers.
func assertMatricesEqual(t *testing.T, fast, slow *Matrix) {
	t.Helper()
	if fast.Rows() != slow.Rows() || fast.Cols() != slow.Cols() {
		t.Fatalf("dims %dx%d != %dx%d", fast.Rows(), fast.Cols(), slow.Rows(), slow.Cols())
	}
	for r := 0; r < fast.Rows(); r++ {
		for c := 0; c < fast.Cols(); c++ {
			if fast.p[r][c] != slow.p[r][c] {
				t.Fatalf("p[%d][%d]: kernel %v != generic %v (VM %d on PM %d)",
					r, c, fast.p[r][c], slow.p[r][c], fast.vms[c].ID, fast.pms[r].ID)
			}
		}
	}
	for c := 0; c < fast.Cols(); c++ {
		if fast.curRow[c] != slow.curRow[c] || fast.curProb[c] != slow.curProb[c] {
			t.Fatalf("col %d normalizer: kernel (%d, %v) != generic (%d, %v)",
				c, fast.curRow[c], fast.curProb[c], slow.curRow[c], slow.curProb[c])
		}
		if fast.bestRow[c] != slow.bestRow[c] || fast.bestGain[c] != slow.bestGain[c] {
			t.Fatalf("col %d best: kernel (%d, %v) != generic (%d, %v)",
				c, fast.bestRow[c], fast.bestGain[c], slow.bestRow[c], slow.bestGain[c])
		}
	}
	fr, fc, fg, fok := fast.Best()
	sr, sc, sg, sok := slow.Best()
	if fr != sr || fc != sc || fg != sg || fok != sok {
		t.Fatalf("Best: kernel (%d, %d, %v, %v) != generic (%d, %d, %v, %v)",
			fr, fc, fg, fok, sr, sc, sg, sok)
	}
}

// TestKernelEquivalence proves the compiled program fills every cell
// bit-identical to Joint on the Table II fleet, for the default factors,
// for ablation subsets, for a user factor composed on top and for a list of
// user factors alone (generic terms only) — including zero-reliability rows
// and expired-estimate columns, where both sides take their literal-zero
// short circuits — and that the same factors behind opaque (generic terms
// throughout) build the same cells and trackers. (The frozen oracle is the
// third leg: internal/audit's TestMatrixMatchesOracleAfterApplies and
// TrackerCheck.)
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
			ctx, vms := edgeState(t, 100, 260, 7)
			fast, err := NewMatrix(ctx, tc.factors, vms)
			if err != nil {
				t.Fatal(err)
			}
			assertJointFill(t, fast)
			slow, err := NewMatrix(ctx, opaqueFactors(tc.factors), vms)
			if err != nil {
				t.Fatal(err)
			}
			assertMatricesEqual(t, fast, slow)
		})
	}
}

// TestKernelEquivalenceConsolidate proves Algorithm 1 produces identical
// move sequences (VM, endpoints, bit-identical gains, rounds) on the Table
// II fleet three ways: what a canonical run executes (the lazy rounds over
// the candidate index), the dense Matrix on the compiled program, and the
// dense Matrix on the program's generic terms (opaque factors).
func TestKernelEquivalenceConsolidate(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	ctxFast, _ := spreadState(t, 100, 260, 11)
	ctxCell, _ := spreadState(t, 100, 260, 11)
	ctxSlow, _ := spreadState(t, 100, 260, 11)

	fast, err := ConsolidateWith(ctxFast, DefaultFactors(), params, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow := denseConsolidate(t, ctxSlow, opaqueFactors(DefaultFactors()), params)
	if len(slow) == 0 {
		t.Fatal("consolidation produced no moves; the state is too easy to prove anything")
	}
	assertMovesEqual(t, slow, fast)
	assertMovesEqual(t, slow, denseConsolidate(t, ctxCell, DefaultFactors(), params))
	if err := ctxFast.DC.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestKernelArrivalEquivalence checks the arrival path on both of its
// evaluators — the candidate index for the paper's factors, the arrival
// column's generic terms for the same factors behind opaque: the
// program-scored ranking (RankPlacements) must equal a naive Joint scan,
// including the unhosted-VM overhead rule (creation only, no migration
// share), and BestPlacementWith must return the Joint scan's argmax, which
// is also the ranking's head.
func TestKernelArrivalEquivalence(t *testing.T) {
	for _, name := range []string{"kernel", "generic"} {
		t.Run(name, func(t *testing.T) {
			ctx, _ := tableIIState(t, 100, 200, 13)
			factors := pathFactors(name)
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
}

// TestMatrixTrackersMatchRebuildAfterRandomApplies is the incremental-
// drift property test: after a randomized sequence of Apply calls, the
// live matrix's curRow/curProb/bestRow/bestGain trackers (and Best) must
// match a from-scratch NewMatrix rebuild of the mutated datacenter, on
// both evaluation paths.
func TestMatrixTrackersMatchRebuildAfterRandomApplies(t *testing.T) {
	for _, name := range []string{"kernel", "generic"} {
		t.Run(name, func(t *testing.T) {
			ctx, vms := tableIIState(t, 100, 150, 23)
			factors := pathFactors(name)
			m, err := NewMatrix(ctx, factors, vms)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRand(42)
			applied := 0
			for step := 0; step < 40; step++ {
				// Random feasible move: any positive cell off the
				// current host.
				c := rng.Intn(m.Cols())
				var rows []int
				for r := 0; r < m.Rows(); r++ {
					if r != m.curRow[c] && m.p[r][c] > 0 {
						rows = append(rows, r)
					}
				}
				if len(rows) == 0 {
					continue
				}
				if err := m.Apply(rows[rng.Intn(len(rows))], c); err != nil {
					t.Fatal(err)
				}
				applied++

				fresh, err := NewMatrix(ctx, factors, vms)
				if err != nil {
					t.Fatal(err)
				}
				assertMatricesEqual(t, m, fresh)
			}
			if applied < 10 {
				t.Fatalf("only %d random moves applied; property barely exercised", applied)
			}
			if err := ctx.DC.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestConsolidateZeroCurrentProbability exercises the curProb == 0 → +Inf
// gain path end-to-end through Algorithm 1 on the dense Matrix with the
// real factors, on the compiled program and on its generic terms: a VM
// whose host's reliability has decayed to zero has a zero-probability
// placement, so any feasible alternative must be taken regardless of
// MIG_threshold, with an infinite recorded gain. (The lazy rounds' twin
// is TestSparseConsolidateZeroCurrentProbability.)
func TestConsolidateZeroCurrentProbability(t *testing.T) {
	for _, name := range []string{"kernel", "generic"} {
		t.Run(name, func(t *testing.T) {
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
			moves := denseConsolidate(t, ctx, pathFactors(name), DefaultParams())
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
}
