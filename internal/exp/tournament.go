package exp

import "sort"

// This file implements the policy tournament: a replication sweep over
// the full policy roster scored on multi-objective fitness. Each policy
// is ranked per objective — mean week energy (the paper's Figure 4
// quantity), mean queued fraction (the QoS-violation proxy: requests
// that waited beyond a second), and mean migrations (churn) — and the
// objectives combine by Borda count: a policy's TotalScore is the sum
// of its per-objective ordinal ranks, lower is better. Borda needs no
// weight vector (any weighting of incommensurable units would be
// arbitrary) yet still rewards balanced policies over specialists.
//
// Determinism: the scores are pure functions of the SweepReport
// aggregates, every sort is total-ordered with scheme-name tie-breaks,
// and the embedded sweep is worker-count-independent by construction —
// so the tournament report is too (TestTournamentDeterministic pins
// it).

// DefaultTournamentPolicies is the standard five-policy roster.
func DefaultTournamentPolicies() []string {
	return []string{"first-fit", "best-fit", "dynamic", "overbook", "dynamic-adaptive"}
}

// PolicyScore is one policy's multi-objective tournament standing.
type PolicyScore struct {
	Scheme string

	// Per-objective cross-seed means, from the sweep aggregates.
	EnergyMean     float64
	ViolationMean  float64
	MigrationsMean float64

	// Per-objective ordinal ranks (1 = best, i.e. lowest mean).
	EnergyRank    int
	ViolationRank int
	MigrationRank int

	// TotalScore is the Borda sum of the objective ranks (lower is
	// better); Rank is the final standing it produces.
	TotalScore int
	Rank       int
}

// TournamentReport couples the final standings with the sweep they were
// computed from.
type TournamentReport struct {
	Scores []PolicyScore
	Sweep  *SweepReport
}

// ScoreTournament derives the standings from a sweep's aggregates.
func ScoreTournament(sweep *SweepReport) []PolicyScore {
	scores := make([]PolicyScore, len(sweep.Aggregates))
	for i, agg := range sweep.Aggregates {
		scores[i] = PolicyScore{
			Scheme:         agg.Scheme,
			EnergyMean:     agg.WeekEnergyKWh.Mean,
			ViolationMean:  agg.QueuedFraction.Mean,
			MigrationsMean: agg.Migrations.Mean,
		}
	}
	rankBy(scores, func(s *PolicyScore) float64 { return s.EnergyMean },
		func(s *PolicyScore, r int) { s.EnergyRank = r })
	rankBy(scores, func(s *PolicyScore) float64 { return s.ViolationMean },
		func(s *PolicyScore, r int) { s.ViolationRank = r })
	rankBy(scores, func(s *PolicyScore) float64 { return s.MigrationsMean },
		func(s *PolicyScore, r int) { s.MigrationRank = r })
	for i := range scores {
		scores[i].TotalScore = scores[i].EnergyRank + scores[i].ViolationRank + scores[i].MigrationRank
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].TotalScore != scores[j].TotalScore {
			return scores[i].TotalScore < scores[j].TotalScore
		}
		return scores[i].Scheme < scores[j].Scheme
	})
	for i := range scores {
		scores[i].Rank = i + 1
	}
	return scores
}

// rankBy assigns ordinal ranks for one objective (lowest value ranks 1,
// ties broken by scheme name so ranks are deterministic).
func rankBy(scores []PolicyScore, value func(*PolicyScore) float64, assign func(*PolicyScore, int)) {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := value(&scores[order[a]]), value(&scores[order[b]])
		if va != vb {
			return va < vb
		}
		return scores[order[a]].Scheme < scores[order[b]].Scheme
	})
	for r, i := range order {
		assign(&scores[i], r+1)
	}
}
