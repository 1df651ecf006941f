package nhpp

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// sortFold is the folded-phase cache as it was kept before rebuild merged:
// whenever k moved (or nothing was cached), every arrival below k periods is
// folded and sorted afresh. It is the reference the incremental fold is held
// to, bit for bit.
type sortFold struct {
	folded []float64
	k      int
}

// rebuild reports whether it folded afresh.
func (r *sortFold) rebuild(e *Estimator, k int) bool {
	if k == r.k && r.folded != nil {
		return false
	}
	limit := float64(k) * e.period
	r.folded = r.folded[:0]
	for _, t := range e.arrivals {
		if t < limit {
			r.folded = append(r.folded, t-float64(int(t/e.period))*e.period)
		}
	}
	sort.Float64s(r.folded)
	r.k = k
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestIncrementalFoldMatchesSort drives estimators with random streams and
// after every query holds the folded cache to sortFold's, and — whenever the
// reference folded afresh — to a cold estimator restored from the same
// observations. The streams mix in-order arrivals, arrival-free stretches of
// whole cycles (Advance), out-of-order observations below the cached limit,
// and a checkpoint Restore in the middle of a cycle.
func TestIncrementalFoldMatchesSort(t *testing.T) {
	const period = 100.0
	var seen struct{ tail, stale, restore, merges int }
	for seed := int64(1); seed <= 40; seed++ {
		rng := stats.NewRand(seed)
		e, ref := New(period), &sortFold{}
		now := 0.0
		for step := 0; step < 400; step++ {
			switch r := rng.Float64(); {
			case r < 0.60: // in order
				now += rng.ExpFloat64() * period / 20
				e.Observe(now)
			case r < 0.65: // out of order, below the cached limit when there is one
				if e.limit > 0 {
					seen.stale++
				}
				e.Observe(rng.Float64() * now)
			case r < 0.68: // arrival-free cycles
				now += float64(1+rng.Intn(5)) * period
				e.Advance(now)
				seen.tail++
			case r < 0.70: // checkpoint and resume mid-cycle; the cache is not saved
				var err error
				if e, err = Restore(period, e.State()); err != nil {
					t.Fatal(err)
				}
				ref = &sortFold{}
				seen.restore++
			default:
				from := rng.Float64() * now
				got := e.CumulativeIntensity(from, from+rng.Float64()*2*period)
				if math.IsNaN(got) {
					t.Fatalf("seed %d step %d: NaN intensity", seed, step)
				}
				k := e.completeCycles()
				if k == 0 {
					continue
				}
				if ref.rebuild(e, k) {
					cold, err := Restore(period, e.State())
					if err != nil {
						t.Fatal(err)
					}
					cold.rebuild(k)
					if !sameBits(e.folded, cold.folded) {
						t.Fatalf("seed %d step %d: folded %v, a cold rebuild %v", seed, step, e.folded, cold.folded)
					}
					seen.merges++
				}
				if !sameBits(e.folded, ref.folded) || e.cycleCache != ref.k {
					t.Fatalf("seed %d step %d: folded %v at k %d, a full sort %v at k %d", seed, step, e.folded, e.cycleCache, ref.folded, ref.k)
				}
			}
		}
	}
	if seen.tail == 0 || seen.stale == 0 || seen.restore == 0 || seen.merges < 100 {
		t.Fatalf("degenerate streams: %+v", seen)
	}
}
