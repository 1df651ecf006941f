// Package nhpp estimates the cumulative intensity function of a
// non-homogeneous Poisson process from observed arrivals, following the
// nonparametric estimator of Leemis ("Nonparametric Estimation of the
// Cumulative Intensity Function for a Nonhomogeneous Poisson Process",
// Management Science 37(7), 1991) — the method the paper cites for its
// spare-server controller (Section IV, Eq. 6-7).
//
// The Leemis estimator assumes the process is cyclic with a known period S
// (a day, for data-center workloads) and that k complete cycles have been
// observed. All n arrival times are folded into one cycle [0, S) and
// sorted: 0 = t(0) < t(1) <= ... <= t(n) < t(n+1) = S. The estimated
// cumulative intensity at phase t in [t(i), t(i+1)) is the piecewise-linear
// interpolant
//
//	Λ̂(t) = ( i + (t - t(i)) / (t(i+1) - t(i)) ) / k
//
// which rises by 1/k per observed arrival and reaches (n+1)/k at the cycle
// end (the n+1 numerator is Leemis' bias correction for the unobserved
// next arrival). Expected arrivals over an interval follow by
// differencing, unwrapping intervals that cross cycle boundaries.
package nhpp

import (
	"fmt"
	"slices"
	"sort"
)

// Estimator accumulates arrival observations and answers cumulative-
// intensity queries. It is not safe for concurrent use; the simulator is
// single-threaded per run.
type Estimator struct {
	period float64

	// arrivals holds raw absolute observation times, unsorted.
	arrivals []float64

	// latest is the largest observation time seen (observations may not
	// regress in a DES, but we tolerate out-of-order bookkeeping).
	latest float64

	// folded caches the sorted folded phases of arrivals from complete
	// cycles; brought up to date lazily when cycleCache no longer matches,
	// by merging in the cycles completed since (rebuild).
	folded     []float64
	cycleCache int
	// limit is cycleCache's end, cycleCache periods: every arrival below it
	// is in folded. from indexes the first arrival not below it, so every
	// arrival before from is folded. stale records an Observe below limit
	// since the last fold, which only a full fold picks up.
	limit float64
	from  int
	stale bool
}

// New returns an estimator with the given cycle period in seconds
// (86400 for the daily cycle of the paper's workload).
func New(period float64) *Estimator {
	if period <= 0 {
		panic(fmt.Sprintf("nhpp: period must be positive, got %g", period))
	}
	return &Estimator{period: period}
}

// Observe records an arrival at absolute time t >= 0.
func (e *Estimator) Observe(t float64) {
	if t < 0 {
		panic(fmt.Sprintf("nhpp: negative observation time %g", t))
	}
	e.arrivals = append(e.arrivals, t)
	if t < e.limit {
		e.stale = true
	}
	if t > e.latest {
		e.latest = t
	}
}

// Advance tells the estimator that observation has continued (arrival-free)
// up to time now. Cycles with no arrivals still count as observed cycles;
// without Advance a quiet stretch would silently inflate the per-cycle
// estimate. The simulator calls Advance at every control period.
func (e *Estimator) Advance(now float64) {
	if now > e.latest {
		e.latest = now
	}
}

// State is the serializable observation window of the estimator: the raw
// arrival times plus the observation horizon. The folded-phase cache is
// deliberately excluded — it is a pure function of (arrivals, latest) and
// rebuilds lazily after a restore, bit-identically (same inputs, same
// sort, same floats).
type State struct {
	Arrivals []float64 `json:"arrivals,omitempty"`
	Latest   float64   `json:"latest"`
}

// State captures the estimator's observations for a checkpoint.
func (e *Estimator) State() State {
	return State{Arrivals: append([]float64(nil), e.arrivals...), Latest: e.latest}
}

// Restore rebuilds an estimator from a checkpointed state.
func Restore(period float64, st State) (*Estimator, error) {
	if period <= 0 {
		return nil, fmt.Errorf("nhpp: period must be positive, got %g", period)
	}
	if st.Latest < 0 {
		return nil, fmt.Errorf("nhpp: negative observation horizon %g", st.Latest)
	}
	for i, t := range st.Arrivals {
		if t < 0 || t > st.Latest {
			return nil, fmt.Errorf("nhpp: arrival %d at %g outside [0, %g]", i, t, st.Latest)
		}
	}
	return &Estimator{
		period:   period,
		arrivals: append([]float64(nil), st.Arrivals...),
		latest:   st.Latest,
	}, nil
}

// completeCycles returns k, the number of fully observed cycles.
func (e *Estimator) completeCycles() int {
	return int(e.latest / e.period)
}

// rebuild refreshes the folded phase cache for k complete cycles. It
// appends to folded only the phases of the arrivals in [limit, k periods) —
// the cycles completed since the last fold — and merges them into the
// phases before them in place, from the back, reading the new run from the
// arrivals again: no scratch slice. That run is in phase order when the
// arrivals came in time order within one cycle; when it is not (several
// cycles folded at once, or the cycle arithmetic rounding an arrival into
// its neighbour), folded is sorted whole. After an Observe below limit
// every arrival is folded afresh, as a fresh estimator's first rebuild does.
// Either way folded holds the sorted phases of every arrival below k periods
// observed by the last fold.
func (e *Estimator) rebuild(k int) {
	if k == e.cycleCache && e.folded != nil {
		return
	}
	if e.stale {
		e.folded, e.limit, e.from, e.stale = e.folded[:0], 0, 0, false
	}
	limit := float64(k) * e.period
	n, inOrder := len(e.folded), true
	for _, t := range e.arrivals[e.from:] {
		if t >= e.limit && t < limit {
			p := e.phase(t)
			if last := len(e.folded) - 1; last >= n && e.folded[last] > p {
				inOrder = false
			}
			e.folded = append(e.folded, p)
		}
	}
	switch {
	case !inOrder:
		slices.Sort(e.folded)
	case n > 0 && len(e.folded) > n:
		// w is one past the next write, i the unmerged old phases: w - i
		// new phases are still to come, so w never passes folded[i-1]
		// while one is.
		i, w := n, len(e.folded)
		for j := len(e.arrivals) - 1; j >= e.from; j-- {
			t := e.arrivals[j]
			if t < e.limit || t >= limit {
				continue
			}
			p := e.phase(t)
			for i > 0 && e.folded[i-1] > p {
				w--
				i--
				e.folded[w] = e.folded[i]
			}
			w--
			e.folded[w] = p
		}
	}
	for e.from < len(e.arrivals) && e.arrivals[e.from] < limit {
		e.from++
	}
	e.limit, e.cycleCache = limit, k
}

// phase folds absolute time t into the cycle [0, period).
func (e *Estimator) phase(t float64) float64 {
	return t - float64(int(t/e.period))*e.period
}

// lambdaHatPhase evaluates the Leemis piecewise-linear estimate of the
// within-cycle cumulative intensity at phase p in [0, period], given k
// complete cycles. Requires the folded cache to be current.
func (e *Estimator) lambdaHatPhase(p float64, k int) float64 {
	n := len(e.folded)
	if n == 0 || k == 0 {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= e.period {
		return float64(n+1) / float64(k)
	}
	// i = number of folded arrivals with phase <= p.
	i := sort.SearchFloat64s(e.folded, p)
	// Stretch each segment [t(i), t(i+1)) to contribute one unit; the
	// boundary knots are t(0)=0 and t(n+1)=period.
	lo := 0.0
	if i > 0 {
		lo = e.folded[i-1]
	}
	hi := e.period
	if i < n {
		hi = e.folded[i]
	}
	frac := 0.0
	if hi > lo {
		frac = (p - lo) / (hi - lo)
	}
	return (float64(i) + frac) / float64(k)
}

// CycleMass returns Λ̂ over one full cycle: the expected number of
// arrivals per period, (n+1)/k. It returns 0 before any complete cycle has
// been observed.
func (e *Estimator) CycleMass() float64 {
	k := e.completeCycles()
	if k == 0 {
		return 0
	}
	e.rebuild(k)
	if len(e.folded) == 0 {
		return 0
	}
	return float64(len(e.folded)+1) / float64(k)
}

// CumulativeIntensity returns Λ̂(from, to): the expected number of
// arrivals in the absolute interval [from, to), per Eq. 6 of the paper.
// The estimate folds the interval onto the learned cycle; intervals longer
// than a full period accumulate whole-cycle mass. Before the first
// complete cycle the estimator falls back to the overall observed rate
// (arrivals so far divided by elapsed time), which lets the controller
// produce usable estimates during warm-up.
func (e *Estimator) CumulativeIntensity(from, to float64) float64 {
	if to < from {
		panic(fmt.Sprintf("nhpp: interval [%g, %g) reversed", from, to))
	}
	if to == from {
		return 0
	}
	k := e.completeCycles()
	if k == 0 {
		// Warm-up: homogeneous-rate fallback over the observed span. The
		// span is clamped from below: a burst of arrivals in the first few
		// seconds would otherwise divide by a tiny e.latest and report an
		// absurd rate (two arrivals at t=1ms extrapolate to 2000/s). One
		// twenty-fourth of a period — an "hour" of a daily cycle — is the
		// shortest window we trust a rate estimate from.
		if e.latest <= 0 || len(e.arrivals) == 0 {
			return 0
		}
		span := e.latest
		if min := e.period / 24; span < min {
			span = min
		}
		rate := float64(len(e.arrivals)) / span
		return rate * (to - from)
	}
	e.rebuild(k)
	if len(e.folded) == 0 {
		return 0
	}

	mass := 0.0
	length := to - from
	if cycles := int(length / e.period); cycles > 0 {
		mass += float64(cycles) * (float64(len(e.folded)+1) / float64(k))
		length -= float64(cycles) * e.period
	}
	p0 := from - float64(int(from/e.period))*e.period
	p1 := p0 + length
	if p1 <= e.period {
		mass += e.lambdaHatPhase(p1, k) - e.lambdaHatPhase(p0, k)
	} else {
		// The residual interval wraps the cycle boundary.
		mass += e.lambdaHatPhase(e.period, k) - e.lambdaHatPhase(p0, k)
		mass += e.lambdaHatPhase(p1-e.period, k)
	}
	if mass < 0 {
		mass = 0
	}
	return mass
}
