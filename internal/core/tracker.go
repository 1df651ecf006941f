package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
)

// colTrackers is the per-column state Algorithm 1 reads on the dense
// Matrix: the current placement's row and joint probability (the column
// normalizer), and the best non-host alternative — its row, raw
// probability, and normalized gain d = p / curProb. The lazy rounds of a
// canonical pass find a column's best by a score-group scan instead
// (candShape.best) and are held to these trackers bit-for-bit (checkRound),
// so the tie-breaks and the +Inf rescue rule have one definition here.
//
// For a positive normalizer the division is monotone, so maintenance
// compares raw probabilities and divides only when the best changes. The
// best of a column is the lowest row maximizing the raw probability; when
// the current placement has probability 0 (an expired estimate on an
// unreliable host) any positive alternative is a +Inf-gain rescue and the
// lowest such row wins.
type colTrackers struct {
	curRow   []int
	curProb  []float64
	bestRow  []int // -1 when no alternative has positive probability
	bestP    []float64
	bestGain []float64
}

// resize sizes every tracker slice for n columns, reusing capacity.
// Contents are unspecified.
func (t *colTrackers) resize(n int) {
	grow(&t.curRow, n)
	grow(&t.curProb, n)
	grow(&t.bestRow, n)
	grow(&t.bestP, n)
	grow(&t.bestGain, n)
}

// normGain derives the normalized gain of a best alternative (row, p)
// against the normalizer cur.
func normGain(row int, p, cur float64) float64 {
	switch {
	case row < 0:
		return 0
	case cur > 0:
		return p / cur
	default:
		return math.Inf(1)
	}
}

// setBest installs (row, p) as column c's best alternative and derives its
// gain from the column's current normalizer.
func (t *colTrackers) setBest(c, row int, p float64) {
	t.bestRow[c], t.bestP[c] = row, p
	t.bestGain[c] = normGain(row, p, t.curProb[c])
}

// beats reports whether row r with probability p orders above column c's
// tracked best: strictly higher probability, or equal probability on a
// lower row (rescue columns: any positive probability on a lower row).
func (t *colTrackers) beats(c, r int, p float64) bool {
	if t.curProb[c] > 0 {
		return p > t.bestP[c] || (p == t.bestP[c] && p > 0 && r < t.bestRow[c])
	}
	return p > 0 && (t.bestRow[c] < 0 || r < t.bestRow[c])
}

// CurProb returns column c's normalizer: the joint probability of the
// VM's current placement.
func (t *colTrackers) CurProb(c int) float64 { return t.curProb[c] }

// BestAlt returns the tracked best non-host row of column c and its
// normalized gain, or (-1, 0) when no alternative has positive gain. The
// audit subsystem compares these trackers against the frozen oracle.
func (t *colTrackers) BestAlt(c int) (row int, gain float64) {
	return t.bestRow[c], t.bestGain[c]
}

// Best returns the globally maximal normalized gain and its (row, col), or
// ok = false when no column has a positive-gain alternative. Ties break
// toward the lowest column (VM ID) then lowest row (PM ID), keeping runs
// deterministic: the strict greater-than keeps the first maximum, and each
// column already tracks its lowest maximizing row. Best runs once per
// Algorithm 1 round, so a sequential argmax over N contiguous floats is
// all it needs.
func (t *colTrackers) Best() (r, c int, gain float64, ok bool) {
	c = -1
	for c2, g := range t.bestGain {
		if g > gain {
			gain, c = g, c2
		}
	}
	if c < 0 || t.bestRow[c] < 0 {
		return -1, -1, 0, false
	}
	return t.bestRow[c], c, gain, true
}

// rescue returns the alternative list of a column whose current placement
// has probability 0 — the single tracked rescue row with +Inf gain, or nil
// — and ok = false when the column has a positive normalizer instead.
func (t *colTrackers) rescue(c int, pms []*cluster.PM) (alts []Placement, ok bool) {
	if t.curProb[c] > 0 {
		return nil, false
	}
	if r := t.bestRow[c]; r >= 0 {
		alts = []Placement{{PM: pms[r], Probability: math.Inf(1)}}
	}
	return alts, true
}

// checkCur compares column c's tracked normalizer with a from-scratch
// derivation.
func (t *colTrackers) checkCur(c, row int, prob float64) error {
	if t.curRow[c] != row {
		return fmt.Errorf("core: column %d curRow %d, want %d", c, t.curRow[c], row)
	}
	if t.curProb[c] != prob {
		return fmt.Errorf("core: column %d curProb %g, want %g", c, t.curProb[c], prob)
	}
	return nil
}

// checkBest compares column c's tracked best alternative with a
// from-scratch rescan.
func (t *colTrackers) checkBest(c, row int, p float64) error {
	g := normGain(row, p, t.curProb[c])
	if t.bestRow[c] != row || t.bestGain[c] != g {
		return fmt.Errorf("core: column %d tracker (row %d, gain %g) != rescan (row %d, gain %g)",
			c, t.bestRow[c], t.bestGain[c], row, g)
	}
	if row >= 0 && t.bestP[c] != p {
		return fmt.Errorf("core: column %d bestP %g != rescan %g", c, t.bestP[c], p)
	}
	return nil
}

// diff compares two tracker sets column for column, then the Best
// extraction; every value must be bit-identical.
func (t *colTrackers) diff(o *colTrackers) error {
	for c := range t.curRow {
		if t.curRow[c] != o.curRow[c] || t.curProb[c] != o.curProb[c] {
			return fmt.Errorf("core: column %d normalizer (row %d, p %g) vs (row %d, p %g)",
				c, t.curRow[c], t.curProb[c], o.curRow[c], o.curProb[c])
		}
		if t.bestRow[c] != o.bestRow[c] || t.bestGain[c] != o.bestGain[c] {
			return fmt.Errorf("core: column %d best (row %d, gain %g) vs (row %d, gain %g)",
				c, t.bestRow[c], t.bestGain[c], o.bestRow[c], o.bestGain[c])
		}
		if t.bestRow[c] >= 0 && t.bestP[c] != o.bestP[c] {
			return fmt.Errorf("core: column %d bestP %g vs %g", c, t.bestP[c], o.bestP[c])
		}
	}
	tr, tc, tg, tok := t.Best()
	or, oc, og, ook := o.Best()
	if tok != ook || (tok && (tr != or || tc != oc || tg != og)) {
		return fmt.Errorf("core: Best (%d, %d, %g, %t) vs (%d, %d, %g, %t)", tr, tc, tg, tok, or, oc, og, ook)
	}
	return nil
}
