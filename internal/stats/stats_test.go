package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give the same stream")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(1)
	const n, mean = 200000, 3.5
	var sum float64
	for i := 0; i < n; i++ {
		x := Exponential(r, mean)
		if x < 0 {
			t.Fatalf("negative exponential draw %g", x)
		}
		sum += x
	}
	got := sum / n
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("sample mean %g, want ~%g", got, mean)
	}
}

func TestExponentialPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive mean")
		}
	}()
	Exponential(NewRand(1), 0)
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(2)
	const n, median = 100001, 120.0
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = LogNormalFromMedian(r, median, 1.3)
	}
	got := Median(xs)
	if math.Abs(got-median)/median > 0.05 {
		t.Errorf("sample median %g, want ~%g", got, median)
	}
}

func TestLogNormalFromMedianPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive median")
		}
	}()
	LogNormalFromMedian(NewRand(1), -1, 1)
}

func TestCategoricalDistribution(t *testing.T) {
	r := NewRand(5)
	weights := []float64{1, 3, 6}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[Categorical(r, weights)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want)/want > 0.05 {
			t.Errorf("bucket %d count %d, want ~%g", i, counts[i], want)
		}
	}
}

func TestCategoricalSingle(t *testing.T) {
	if got := Categorical(NewRand(1), []float64{5}); got != 0 {
		t.Errorf("single-bucket categorical = %d", got)
	}
}

func TestCategoricalZeroWeightSkipped(t *testing.T) {
	r := NewRand(6)
	for i := 0; i < 1000; i++ {
		if got := Categorical(r, []float64{0, 1, 0}); got != 1 {
			t.Fatalf("zero-weight bucket selected: %d", got)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for all-zero weights")
		}
	}()
	Categorical(NewRand(1), []float64{0, 0})
}

// poissonPMF is P(N = k) for a Poisson distribution with mean lambda > 0,
// computed in log space: the direct summation TestPoissonCDF holds
// PoissonCDF's recurrence to.
func poissonPMF(lambda float64, k int) float64 {
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.3, 1, 5, 40} {
		var sum float64
		for k := 0; k < 400; k++ {
			sum += poissonPMF(lambda, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lambda=%g: PMF sums to %g", lambda, sum)
		}
	}
}

func TestPoissonCDF(t *testing.T) {
	if got := PoissonCDF(3, -1); got != 0 {
		t.Errorf("CDF(3,-1) = %g", got)
	}
	if got := PoissonCDF(0, 0); got != 1 {
		t.Errorf("CDF(0,0) = %g", got)
	}
	// Compare against a direct PMF summation.
	for _, lambda := range []float64{0.5, 2, 17} {
		var sum float64
		for k := 0; k <= 30; k++ {
			sum += poissonPMF(lambda, k)
			if got := PoissonCDF(lambda, k); math.Abs(got-sum) > 1e-9 {
				t.Errorf("CDF(%g,%d) = %g, want %g", lambda, k, got, sum)
			}
		}
	}
}

func TestPoissonCDFLargeLambda(t *testing.T) {
	// Normal approximation regime: CDF at the mean should be ~0.5.
	got := PoissonCDF(800, 800)
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("CDF(800,800) = %g, want ~0.5", got)
	}
	if PoissonCDF(800, 10000) < 0.999 {
		t.Error("far-right tail should be ~1")
	}
}

func TestPoissonQuantile(t *testing.T) {
	for _, tc := range []struct {
		lambda, alpha float64
	}{{1, 0.05}, {5, 0.05}, {20, 0.05}, {100, 0.01}, {3, 0.5}} {
		n := PoissonQuantile(tc.lambda, tc.alpha)
		if tail := 1 - PoissonCDF(tc.lambda, n); tail > tc.alpha+1e-12 {
			t.Errorf("lambda=%g alpha=%g: P(N>%d) = %g > alpha", tc.lambda, tc.alpha, n, tail)
		}
		if n > 0 {
			if tail := 1 - PoissonCDF(tc.lambda, n-1); tail <= tc.alpha {
				t.Errorf("lambda=%g alpha=%g: quantile %d not minimal", tc.lambda, tc.alpha, n)
			}
		}
	}
}

// TestPoissonQuantileLargeLambda sweeps the band where e^-lambda goes
// denormal (~708-745): a CDF recursion seeded from a denormal saturated
// below 1-alpha and the quantile walk never returned (e.g. lambda 742.75).
// The quantile must return, sit in the upper tail near the mean, and move
// smoothly across the switch to the normal approximation.
func TestPoissonQuantileLargeLambda(t *testing.T) {
	prev := -1
	for i := 0; ; i++ {
		lambda := 600 + 0.05*float64(i)
		if lambda > 900 {
			break
		}
		n := PoissonQuantile(lambda, 0.05)
		if lo, hi := lambda, lambda+3*math.Sqrt(lambda); float64(n) < lo || float64(n) > hi {
			t.Fatalf("quantile(%g, 0.05) = %d outside [%g, %g]", lambda, n, lo, hi)
		}
		if prev >= 0 && n < prev-1 {
			t.Fatalf("quantile(%g, 0.05) = %d dropped from %d at the previous lambda", lambda, n, prev)
		}
		prev = n
	}
}

func TestPoissonQuantileZeroLambda(t *testing.T) {
	if got := PoissonQuantile(0, 0.05); got != 0 {
		t.Errorf("quantile(0) = %d, want 0", got)
	}
}

func TestPoissonQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for alpha out of range")
		}
	}()
	PoissonQuantile(5, 0)
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("p0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("p100 = %g", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("p50 = %g", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("p25 = %g", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-sample percentile = %g", got)
	}
	// Does not mutate input.
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestPercentileClampsP(t *testing.T) {
	xs := []float64{1, 2, 3}
	if Percentile(xs, -10) != 1 || Percentile(xs, 400) != 3 {
		t.Error("out-of-range p should clamp")
	}
}

// Property: Poisson CDF is non-decreasing in k and within [0, 1].
func TestQuickPoissonCDFMonotone(t *testing.T) {
	f := func(l uint8, k uint8) bool {
		lambda := float64(l%50) + 0.5
		kk := int(k % 60)
		a, b := PoissonCDF(lambda, kk), PoissonCDF(lambda, kk+1)
		return a >= 0 && b <= 1 && b >= a-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the quantile's tail bound always holds.
func TestQuickPoissonQuantileTail(t *testing.T) {
	f := func(l uint8) bool {
		lambda := float64(l) / 4
		n := PoissonQuantile(lambda+0.01, 0.05)
		return 1-PoissonCDF(lambda+0.01, n) <= 0.05+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPoissonQuantile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PoissonQuantile(42.5, 0.05)
	}
}

// quantileByCDFWalk is PoissonQuantile as it was written before it carried
// the CDF's running sum: every candidate n asks PoissonCDF from zero, which
// is quadratic in n. It is the reference the linear walk is held to.
func quantileByCDFWalk(lambda, alpha float64) int {
	target := 1 - alpha
	n := 0
	if lambda > 10 {
		n = int(lambda - 5*math.Sqrt(lambda))
		if n < 0 {
			n = 0
		}
	}
	prev := -1.0
	for ; ; n++ {
		cdf := PoissonCDF(lambda, n)
		if cdf >= target || (cdf == prev && float64(n) > lambda) {
			return n
		}
		prev = cdf
	}
}

// TestPoissonQuantileMatchesCDFWalk holds PoissonQuantile to the walk that
// calls PoissonCDF for each n, over lambda in (0, 10] where the walk starts
// at zero, on to 745 where the warm start applies, and densely across the
// edge near 708.4 where e^-lambda leaves the normal floats and PoissonCDF
// switches to its normal approximation.
func TestPoissonQuantileMatchesCDFWalk(t *testing.T) {
	var lambdas []float64
	for l := 0.01; l <= 10; l += 0.01 {
		lambdas = append(lambdas, l)
	}
	for l := 10.0; l <= 745; l += 3.7 {
		lambdas = append(lambdas, l)
	}
	for l := 705.0; l <= 712; l += 0.05 {
		lambdas = append(lambdas, l)
	}
	lambdas = append(lambdas, 1e-9, 10, math.Nextafter(10, 11), 745)
	normal := 0
	for _, lambda := range lambdas {
		if math.Exp(-lambda) < minNormal {
			normal++
		}
		for _, alpha := range []float64{0.01, 0.05, 0.2, 0.5} {
			if got, want := PoissonQuantile(lambda, alpha), quantileByCDFWalk(lambda, alpha); got != want {
				t.Fatalf("PoissonQuantile(%v, %v) = %d, the CDF walk %d", lambda, alpha, got, want)
			}
		}
	}
	if normal == 0 || normal == len(lambdas) {
		t.Fatalf("the sweep does not cross the minNormal edge: %d of %d lambdas above it", normal, len(lambdas))
	}
}
