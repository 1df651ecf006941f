package exp

import (
	"testing"
	"time"
)

// TestDynNoRelIsDynamic is a metamorphic relation of E-A1a: both Table II
// classes have reliability 0.99 and a run without failures never changes a
// PM's, so p_rel is one constant in every cell. It cancels in every
// column's normalization and in every arrival argmax, and dropping it
// (dyn-no-rel) must leave the seed-1 week with spares as dynamic runs it:
// the same moves, in order, the same energy and the same queued fraction.
// The gains may differ in their last bits (the products round
// differently), so a move is compared by VM, endpoints and round.
func TestDynNoRelIsDynamic(t *testing.T) {
	_, week := WeekTrace(1)
	opts := DefaultOptions(1)
	variants := FactorVariants()
	var runs []*SchemeRun
	for _, p := range []int{0, 3} { // dynamic, dyn-no-rel
		start := time.Now()
		run, err := simulate(opts.variantOf(variants[p]), week, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d moves, %.1f kWh, %.2f %% queued, %v", variants[p].Name(),
			len(run.Moves), run.Summary.TotalEnergyKWh, 100*run.Summary.QueuedFraction, time.Since(start))
		runs = append(runs, run)
	}
	if name := variants[3].Name(); name != "dyn-no-rel" {
		t.Fatalf("the fourth factor variant is %s, want dyn-no-rel", name)
	}
	a, b := runs[0].Summary, runs[1].Summary
	if a.TotalEnergyKWh != b.TotalEnergyKWh || a.QueuedFraction != b.QueuedFraction || len(runs[0].Moves) != len(runs[1].Moves) {
		t.Fatalf("dynamic %.6f kWh, %.6f queued, %d moves; dyn-no-rel %.6f kWh, %.6f queued, %d moves",
			a.TotalEnergyKWh, a.QueuedFraction, len(runs[0].Moves), b.TotalEnergyKWh, b.QueuedFraction, len(runs[1].Moves))
	}
	for i, m := range runs[0].Moves {
		if n := runs[1].Moves[i]; m.VM != n.VM || m.From != n.From || m.To != n.To || m.Round != n.Round {
			t.Fatalf("move %d: dynamic %+v, dyn-no-rel %+v", i, m, n)
		}
	}
}
