// Package stats provides the small statistical toolkit the simulator and
// workload generator need: seeded random variate generation (exponential,
// log-normal, bounded Pareto, categorical), Poisson tail probabilities and
// quantiles (used by the spare-server controller's QoS bound, Section IV of
// the paper), and descriptive statistics (histograms, percentiles).
//
// Everything here is deterministic given a seed, which keeps experiments
// reproducible run-to-run.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Rand is the subset of a random source the variate generators need. Using
// an interface keeps the generators testable with scripted number streams.
type Rand interface {
	Float64() float64
	NormFloat64() float64
	ExpFloat64() float64
	Intn(n int) int
}

// NewRand returns a deterministic, snapshot-serializable source seeded with
// seed (see Stream). Every random draw in the repository flows through
// explicitly seeded Streams so a simulation can be checkpointed and resumed
// bit-exactly.
func NewRand(seed int64) *Stream {
	return NewStream(seed)
}

// Exponential draws an exponential variate with the given mean.
// It panics if mean <= 0.
func Exponential(r Rand, mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("stats: exponential mean must be positive, got %g", mean))
	}
	return r.ExpFloat64() * mean
}

// LogNormal draws a log-normal variate with the given parameters mu and
// sigma of the underlying normal distribution. The median of the result is
// exp(mu).
func LogNormal(r Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// LogNormalFromMedian converts a median and a shape parameter sigma into a
// log-normal draw. Convenient because workload specs are usually stated as
// "median runtime X".
func LogNormalFromMedian(r Rand, median, sigma float64) float64 {
	if median <= 0 {
		panic(fmt.Sprintf("stats: log-normal median must be positive, got %g", median))
	}
	return LogNormal(r, math.Log(median), sigma)
}

// Categorical selects an index from weights proportionally. Weights must be
// non-negative and not all zero.
func Categorical(r Rand, weights []float64) int {
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("stats: categorical weight %d is invalid (%g)", i, w))
		}
		total += w
	}
	if total <= 0 {
		panic("stats: categorical weights sum to zero")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack lands on the last bucket
}

// PoissonPMF returns P(N = k) for a Poisson distribution with mean lambda.
// Computed in log space to stay stable for large lambda.
func PoissonPMF(lambda float64, k int) float64 {
	if lambda < 0 || k < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
}

// PoissonCDF returns P(N <= k) for a Poisson distribution with mean lambda.
func PoissonCDF(lambda float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if lambda <= 0 {
		return 1
	}
	// Sum the PMF recursively: p_0 = e^-lambda, p_{i} = p_{i-1} * lambda/i.
	sum := 0.0
	p := math.Exp(-lambda)
	if p < minNormal {
		// lambda too large for a direct start (above ~708): e^-lambda is
		// denormal or zero, and a recursion seeded from a denormal has
		// lost its mantissa — the sum saturates well below 1. Fall back
		// to the normal approximation with continuity correction,
		// accurate to ~1e-3 in the tails at this scale.
		z := (float64(k) + 0.5 - lambda) / math.Sqrt(lambda)
		return normalCDF(z)
	}
	for i := 0; i <= k; i++ {
		if i > 0 {
			p *= lambda / float64(i)
		}
		sum += p
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// PoissonQuantile returns the smallest n such that P(N > n) <= alpha, i.e.
// P(N <= n) >= 1 - alpha, for a Poisson distribution with mean lambda.
// This is exactly the bound the paper's spare-server controller applies:
// "the estimated number of arrival VMs n_arrival is determined by
// P(Λ(T) > n_arrival) <= 0.05" (Section IV). When alpha is below what the
// computed CDF can resolve, the answer is the n at which the CDF saturates.
func PoissonQuantile(lambda, alpha float64) int {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stats: quantile alpha must be in (0,1), got %g", alpha))
	}
	if lambda <= 0 {
		return 0
	}
	target := 1 - alpha
	// Walk up from the mean's lower neighborhood; the quantile is within
	// a few standard deviations of lambda.
	n := 0
	if lambda > 10 {
		n = int(lambda - 5*math.Sqrt(lambda))
		if n < 0 {
			n = 0
		}
	}
	// The computed CDF is nondecreasing in n and bounded by 1, so it
	// either reaches the target or stops changing after finitely many
	// steps; past the mean the terms only shrink, so a CDF that stalled
	// there stays stalled.
	//
	// Each step's CDF is PoissonCDF(lambda, n): where PoissonCDF sums the
	// PMF recursion, its running sum is carried from one n to the next —
	// the same terms added in the same order — so the walk is linear in n.
	p := math.Exp(-lambda)
	normal := p < minNormal // PoissonCDF's normal approximation, O(1) a call
	sum, i := 0.0, 0
	prev := -1.0
	for ; ; n++ {
		var cdf float64
		if normal {
			cdf = PoissonCDF(lambda, n)
		} else {
			for ; i <= n; i++ {
				if i > 0 {
					p *= lambda / float64(i)
				}
				sum += p
			}
			cdf = sum
			if cdf > 1 {
				cdf = 1
			}
		}
		if cdf >= target || (cdf == prev && float64(n) > lambda) {
			return n
		}
		prev = cdf
	}
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// normalCDF is the standard normal CDF.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input. It
// sorts a copy of xs; a caller reading several percentiles of one sample
// sorts it once and calls PercentileSorted.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile of an ascending sample, read in place.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }
