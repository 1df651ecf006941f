package core

import "math"

// colTrackers is the per-column state Algorithm 1 reads on the dense
// Matrix: the current placement's row and joint probability (the column
// normalizer), and the best non-host alternative — its row, raw
// probability, and normalized gain d = p / curProb. The lazy rounds find a
// column's best by a score-group scan instead (candShape.best) and are
// held to these trackers bit-for-bit (checkRound), so the tie-breaks and
// the +Inf rescue rule have one definition here.
//
// For a positive normalizer the division is monotone, so the derivation
// compares raw probabilities and divides once per column. The best of a
// column is the lowest row maximizing the raw probability; when the
// current placement has probability 0 (an expired estimate on an
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
// column already tracks its lowest maximizing row. A build is read once,
// so a sequential argmax over N contiguous floats is all it needs.
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
