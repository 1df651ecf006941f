package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// TestSparseConsolidateMatchesDense proves Algorithm 1 emits an identical
// move sequence (VM, endpoints, bit-identical gains, rounds) through the
// lazy rounds over the candidate index (what ConsolidateWith runs) and the
// cold dense reference, across several fleet seeds.
func TestSparseConsolidateMatchesDense(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	anyMoves := false
	for _, seed := range []int64{3, 7, 11, 19, 23} {
		ctxDense, _ := spreadState(t, 100, 260, seed)
		ctxSparse, _ := spreadState(t, 100, 260, seed)

		dense := denseConsolidate(t, ctxDense, DefaultFactors(), params)
		sparse, err := ConsolidateWith(ctxSparse, DefaultFactors(), params, MatrixOptions{CandidateK: 64})
		if err != nil {
			t.Fatal(err)
		}
		if ctxSparse.cand == nil || ctxDense.cand != nil {
			t.Fatalf("seed %d: candidate index built: sparse side %t, dense side %t, want true, false",
				seed, ctxSparse.cand != nil, ctxDense.cand != nil)
		}
		assertMovesEqual(t, dense, sparse)
		anyMoves = anyMoves || len(dense) > 0
		if err := ctxSparse.DC.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	if !anyMoves {
		t.Fatal("no seed produced moves; the states are too easy to prove anything")
	}
}

// TestSparseConsolidateZeroCurrentProbability is the rescue-path
// equivalence check: a VM on a zero-reliability host has curProb == 0, so
// the lazy rounds must emit the same +Inf-gain rescue move as dense.
func TestSparseConsolidateZeroCurrentProbability(t *testing.T) {
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
	host.SetReliability(0)

	ctx := NewContext(dc).At(100)
	moves, err := ConsolidateWith(ctx, DefaultFactors(), DefaultParams(), MatrixOptions{CandidateK: 8})
	if err != nil {
		t.Fatal(err)
	}
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
	if err := dc.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestTwinClassTieBreak pins the tie-break between score groups: two copies
// of one PM class are distinct classes to the index, so PMs of equal
// utilization form one group per copy with bit-equal products, and the scan
// must give the tie to the lowest PM ID across groups — as the dense column
// scan does — both for an arrival on the empty fleet and for a hosted
// column, whose host sits in the later copy.
func TestTwinClassTieBreak(t *testing.T) {
	slowA, slowB := cluster.SlowClass, cluster.SlowClass
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &slowA, Count: 2}, {Class: &slowB, Count: 2}},
	})
	for _, pm := range dc.PMs() {
		pm.SetState(cluster.PMOn)
	}
	ctx := NewContext(dc).At(600)
	factors := DefaultFactors()
	arrival := cluster.NewVM(1, vector.New(1, 1), 5400, 5400, ctx.Now)
	if got, want := BestPlacement(ctx, factors, arrival), rankedHead(ctx, factors, arrival); got != want {
		t.Fatalf("arrival: got %v want %v", pmID(got), pmID(want))
	}

	if err := dc.PM(3).Host(arrival); err != nil {
		t.Fatal(err)
	}
	arrival.State = cluster.VMRunning
	m, err := NewMatrix(ctx, factors, MigratableVMs(dc))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	row, _ := m.BestAlt(0)
	sh := ctx.candidates().shape(ctx.shapeID(arrival.Demand))
	id, _ := sh.best(3, ctx.hostedProb(dc.PM(3)), ctx.appendVirs(nil, arrival))
	if row < 0 || id != int32(m.PM(row).ID) {
		t.Fatalf("group scan %d dense %d", id, row)
	}
	if err := ctx.CheckProof(m, 1.05); err != nil {
		t.Fatal(err)
	}
}

// TestSparseArrivalMatchesDense checks BestPlacementWith: the
// candidate-index argmax must return the exact PM that heads the
// cell-by-cell column ranking (RankPlacements), for unhosted arrivals and
// for hosted VMs (whose overhead rule differs), across shapes and fleet
// seeds, with and without a declared CandidateK.
func TestSparseArrivalMatchesDense(t *testing.T) {
	factors := DefaultFactors()
	shapes := []vector.V{
		vector.New(1, 0.25), vector.New(1, 1), vector.New(2, 1), vector.New(2, 4),
	}
	for _, seed := range []int64{5, 13, 29} {
		ctx, vms := tableIIState(t, 100, 200, seed)
		id := cluster.VMID(9000)
		for _, demand := range shapes {
			id++
			arrival := cluster.NewVM(id, demand, 5400, 5400, ctx.Now)
			dense := rankedHead(ctx, factors, arrival)
			sparse := BestPlacementWith(ctx, factors, arrival, MatrixOptions{CandidateK: 64})
			if dense != sparse {
				t.Fatalf("seed %d shape %v: dense %v != sparse %v", seed, demand, pmID(dense), pmID(sparse))
			}
		}
		// A hosted VM pays creation + migration overhead on the target;
		// re-placing an existing running VM exercises that branch.
		hosted := vms[len(vms)/2]
		dense := rankedHead(ctx, factors, hosted)
		sparse := BestPlacementWith(ctx, factors, hosted, MatrixOptions{CandidateK: 64})
		if dense != sparse {
			t.Fatalf("seed %d hosted VM %d: dense %v != sparse %v", seed, hosted.ID, pmID(dense), pmID(sparse))
		}
		// CandidateK selects nothing: no declared ceiling, same answer.
		if got := BestPlacement(ctx, factors, hosted); got != dense {
			t.Fatalf("seed %d: CandidateK=0 diverged from the column ranking", seed)
		}
	}
}

// rankedHead is the dense side of the arrival differential: the head of
// the cell-by-cell column ranking, nil when no PM scores above zero.
func rankedHead(ctx *Context, factors []Factor, vm *cluster.VM) *cluster.PM {
	if ranked := RankPlacements(ctx, factors, vm); len(ranked) > 0 {
		return ranked[0].PM
	}
	return nil
}

func pmID(pm *cluster.PM) any {
	if pm == nil {
		return "<nil>"
	}
	return pm.ID
}

// TestSparseShortlistProperty is the satellite property test: for random
// fleets and VM shapes the top-K shortlist is exactly the length-K prefix
// of the dense ranking (so in particular it always contains the dense
// argmax), and with K at least the feasible count it equals the full dense
// ranking — including immediately after randomized move sequences.
func TestSparseShortlistProperty(t *testing.T) {
	factors := DefaultFactors()
	for _, seed := range []int64{2, 9, 31} {
		ctx, vms := tableIIState(t, 60, 120, seed)
		rng := stats.NewRand(seed * 977)
		checkShortlists := func(stage string) {
			t.Helper()
			id := cluster.VMID(9500)
			for trial := 0; trial < 6; trial++ {
				id++
				demand := vector.New(float64(1+rng.Intn(2)), []float64{0.25, 0.5, 1, 2}[rng.Intn(4)])
				probe := cluster.NewVM(id, demand, float64(600+rng.Intn(86400)), 0, ctx.Now)
				ranked := RankPlacements(ctx, factors, probe)
				for _, k := range []int{1, 4, 16, 0} {
					got := ArrivalShortlist(ctx, factors, probe, k)
					want := ranked
					if k > 0 && len(want) > k {
						want = want[:k]
					}
					if len(got) != len(want) {
						t.Fatalf("%s seed %d k=%d: shortlist has %d entries, dense prefix %d",
							stage, seed, k, len(got), len(want))
					}
					for i := range got {
						if got[i].PM != want[i].PM || got[i].Probability != want[i].Probability {
							t.Fatalf("%s seed %d k=%d entry %d: sparse (PM%d, %v) != dense (PM%d, %v)",
								stage, seed, k, i, got[i].PM.ID, got[i].Probability,
								want[i].PM.ID, want[i].Probability)
						}
					}
					if len(ranked) > 0 && k > 0 {
						if best := BestPlacement(ctx, factors, probe); got[0].PM != best {
							t.Fatalf("%s seed %d k=%d: shortlist head PM%d != arrival argmax PM%d",
								stage, seed, k, got[0].PM.ID, best.ID)
						}
					}
				}
			}
		}
		checkShortlists("fresh")

		// Mutate the fleet through a random move sequence — each a positive
		// off-host cell of a cold build, moved through Migrate — and hold
		// the index to a cold dense build after every move (CheckProof: its
		// structure and every column's group scan); the shortlists are then
		// re-checked, so the index must have tracked every membership
		// change.
		applied := 0
		for step := 0; step < 25 && applied < 12; step++ {
			m, err := NewMatrix(ctx, factors, vms)
			if err != nil {
				t.Fatal(err)
			}
			c := rng.Intn(m.Cols())
			var rows []int
			for r := 0; r < m.Rows(); r++ {
				if r != m.curRow[c] && m.p[r][c] > 0 {
					rows = append(rows, r)
				}
			}
			if len(rows) == 0 {
				m.Release()
				continue
			}
			vm, to := m.VM(c), m.PM(rows[rng.Intn(len(rows))])
			m.Release()
			if err := Migrate(vm, ctx.DC.PM(vm.Host), to); err != nil {
				t.Fatal(err)
			}
			applied++
			ref, err := NewMatrix(ctx, factors, MigratableVMs(ctx.DC))
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.CheckProof(ref, 1.05); err != nil {
				t.Fatalf("seed %d after move %d: %v", seed, applied, err)
			}
			ref.Release()
		}
		if applied < 5 {
			t.Fatalf("only %d moves applied; post-move property barely exercised", applied)
		}
		checkShortlists("after-applies")
	}
}

// TestSparseNonCanonicalFallback pins what replaced the engine selector:
// every list of the covered family — the paper's four, an ablation, the
// four with a price term appended — runs on the candidate index and the
// lazy rounds with no dense engine built, its arrival argmax, shortlist
// and moves equal to the cold dense reference's on a twin fleet; any other
// list — opaque user factors, the same four reordered — is refused by name
// at each entry point.
func TestSparseNonCanonicalFallback(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	d := DefaultFactors()
	price := NewPriceFactor([]string{"east", "west"}, "east", FlatPrices(map[string]float64{"east": 1, "west": 0.5}))
	for pm := cluster.PMID(0); pm < 100; pm += 2 {
		price.Assign(pm, "west")
	}
	cases := []struct {
		name    string
		factors []Factor
		refused string // the factor the refusal names; "" for a covered list
	}{
		{"canonical", d, ""},
		{"ablation-no-vir", []Factor{d[0], d[2], d[3]}, ""},
		{"default-plus-price", append(DefaultFactors(), price), ""},
		{"opaque", opaqueFactors(d), "factor 1, res (core.opaque)"},
		{"reordered", []Factor{d[0], d[2], d[1], d[3]}, "factor 3, vir, follows rel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, _ := spreadState(t, 100, 260, 11)
			twin, _ := spreadState(t, 100, 260, 11)
			arrival := cluster.NewVM(9999, vector.New(1, 1), 5400, 0, ctx.Now)
			if tc.refused != "" {
				if _, err := ConsolidateWith(ctx, tc.factors, params, MatrixOptions{}); err == nil || !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("ConsolidateWith: %v, want a refusal naming %q", err, tc.refused)
				}
				for name, call := range map[string]func(){
					"BestPlacement":    func() { BestPlacement(ctx, tc.factors, arrival) },
					"ArrivalShortlist": func() { ArrivalShortlist(ctx, tc.factors, arrival, 8) },
				} {
					if msg := panicText(call); !strings.Contains(msg, tc.refused) {
						t.Errorf("%s: panic %q, want a refusal naming %q", name, msg, tc.refused)
					}
				}
				return
			}
			if got, want := BestPlacement(ctx, tc.factors, arrival), genericBestPlacement(twin, tc.factors, arrival); pmID(got) != pmID(want) {
				t.Fatalf("arrival argmax %v, Joint scan %v", pmID(got), pmID(want))
			}
			ranked, got := RankPlacements(twin, tc.factors, arrival), ArrivalShortlist(ctx, tc.factors, arrival, 0)
			for i := range max(len(got), len(ranked)) {
				if i >= len(got) || i >= len(ranked) || got[i].PM.ID != ranked[i].PM.ID || got[i].Probability != ranked[i].Probability {
					t.Fatalf("shortlist entry %d of %d, cell-by-cell ranking %d", i, len(got), len(ranked))
				}
			}
			moves, err := ConsolidateWith(ctx, tc.factors, params, MatrixOptions{CandidateK: 64})
			if err != nil {
				t.Fatal(err)
			}
			if len(moves) == 0 {
				t.Fatal("consolidation produced no moves; the state is too easy to prove anything")
			}
			assertMovesEqual(t, denseConsolidate(t, twin, tc.factors, params), moves)
			// The pass built no engine and checked out no scratch; the
			// lazy rounds' sweep left its survivor slice behind.
			if ctx.fscratch != nil || ctx.cand == nil || ctx.swept == nil {
				t.Fatalf("pooled scratch %v, index %t, swept %t after the pass; want none, true, true", ctx.fscratch, ctx.cand != nil, ctx.swept != nil)
			}
		})
	}
}

// panicText runs fn and returns what it panicked with, "" when it did not.
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestUseReadsAListOnce: a Context reads a list's form the first time it
// is handed the list and not again, keeps its index for another list of
// the same form, and drops it for a list of another form.
func TestUseReadsAListOnce(t *testing.T) {
	ctx, _ := spreadState(t, 100, 260, 11)
	arrival := cluster.NewVM(9999, vector.New(1, 1), 5400, 0, ctx.Now)
	list := DefaultFactors()
	BestPlacement(ctx, list, arrival)
	x := ctx.cand
	if x == nil || ctx.form != (form{}) {
		t.Fatalf("after the first arrival: index %t, form %+v; want an index on the paper's four", x != nil, ctx.form)
	}
	// A run never edits its list; doing so here shows the form is not
	// read again from the same slice.
	list[1] = list[0]
	BestPlacement(ctx, list, arrival)
	if ctx.cand != x || ctx.form != (form{}) {
		t.Fatalf("the same list again: index kept %t, form %+v; want the form as first read", ctx.cand == x, ctx.form)
	}
	BestPlacement(ctx, DefaultFactors(), arrival)
	if ctx.cand != x {
		t.Fatal("another list of the same form dropped the index")
	}
	d := DefaultFactors()
	BestPlacement(ctx, []Factor{d[0], d[2], d[3]}, arrival)
	if ctx.cand == x || !ctx.form.noVir {
		t.Fatalf("a list without vir: index kept %t, form %+v; want it rebuilt cold for the new form", ctx.cand == x, ctx.form)
	}
	list[1] = d[1]
	BestPlacement(ctx, list, arrival)
	if ctx.form.noVir {
		t.Fatal("the first list handed back after another: form still the other list's")
	}
}
