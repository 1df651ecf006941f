package exp

import (
	"encoding/json"
	"testing"
)

func smallTournamentOptions() SweepOptions {
	return SweepOptions{
		Base: Options{
			SpareForDynamic: true,
			Fleet:           smallFleet,
			TraceGen:        sweepTrace,
		},
		Schemes: DefaultTournamentPolicies(),
		Seeds:   []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

// runTournament sweeps the roster in opts and scores the result, as
// cmd/sweep -tournament does.
func runTournament(t *testing.T, opts SweepOptions) *TournamentReport {
	t.Helper()
	sweep, err := RunSweep(opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", opts.Workers, err)
	}
	return &TournamentReport{Scores: ScoreTournament(sweep), Sweep: sweep}
}

// TestTournamentDeterministic pins the acceptance contract: the full
// five-policy roster over 8 seeds serializes to a byte-identical report
// at every worker count.
func TestTournamentDeterministic(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 7} {
		opts := smallTournamentOptions()
		opts.Workers = workers
		got, err := json.Marshal(runTournament(t, opts))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d report differs from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestTournamentScoring checks the standings' structural invariants:
// all five default policies present, every objective rank a permutation
// of 1..N, TotalScore the Borda sum, and the final order sorted by
// (TotalScore, scheme).
func TestTournamentScoring(t *testing.T) {
	report := runTournament(t, smallTournamentOptions())
	want := DefaultTournamentPolicies()
	if len(report.Scores) != len(want) {
		t.Fatalf("got %d scores, want %d", len(report.Scores), len(want))
	}
	seen := map[string]bool{}
	for _, s := range report.Scores {
		seen[s.Scheme] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("policy %s missing from standings", name)
		}
	}
	n := len(report.Scores)
	perm := func(get func(PolicyScore) int, label string) {
		used := make([]bool, n+1)
		for _, s := range report.Scores {
			r := get(s)
			if r < 1 || r > n || used[r] {
				t.Fatalf("%s ranks are not a permutation of 1..%d: %+v", label, n, report.Scores)
			}
			used[r] = true
		}
	}
	perm(func(s PolicyScore) int { return s.EnergyRank }, "energy")
	perm(func(s PolicyScore) int { return s.ViolationRank }, "violation")
	perm(func(s PolicyScore) int { return s.MigrationRank }, "migration")
	perm(func(s PolicyScore) int { return s.Rank }, "final")
	for i, s := range report.Scores {
		if s.TotalScore != s.EnergyRank+s.ViolationRank+s.MigrationRank {
			t.Errorf("%s: TotalScore %d != Borda sum %d", s.Scheme, s.TotalScore,
				s.EnergyRank+s.ViolationRank+s.MigrationRank)
		}
		if s.Rank != i+1 {
			t.Errorf("standing %d carries Rank %d", i+1, s.Rank)
		}
		if i > 0 {
			prev := report.Scores[i-1]
			if prev.TotalScore > s.TotalScore ||
				(prev.TotalScore == s.TotalScore && prev.Scheme > s.Scheme) {
				t.Errorf("standings out of order at %d: %+v before %+v", i, prev, s)
			}
		}
	}
	if report.Sweep == nil || len(report.Sweep.Runs) != n*8 {
		t.Fatalf("embedded sweep missing or wrong size")
	}
}
