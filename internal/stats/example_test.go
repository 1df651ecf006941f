package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// ExamplePoissonQuantile computes the spare-server controller's QoS
// quantile: the smallest n with P(N > n) <= 0.05 when ~20 arrivals are
// expected in the next control period.
func ExamplePoissonQuantile() {
	n := stats.PoissonQuantile(20, 0.05)
	fmt.Printf("provision for %d arrivals\n", n)
	fmt.Printf("tail above that: %.3f\n", 1-stats.PoissonCDF(20, n))
	// Output:
	// provision for 28 arrivals
	// tail above that: 0.034
}

// ExampleHistogram buckets job runtimes the way the Figure 2 report does.
func ExampleHistogram() {
	h := stats.NewHistogram(0, 1, 6, 24)
	for _, hours := range []float64{0.5, 0.9, 3, 4, 5, 12, 30} {
		h.Add(hours)
	}
	for i := 0; i < h.Bins(); i++ {
		lo, hi := h.BinRange(i)
		fmt.Printf("[%g, %g) hours: %d jobs\n", lo, hi, h.Count(i))
	}
	fmt.Printf("over a day: %d\n", h.Over)
	// Output:
	// [0, 1) hours: 2 jobs
	// [1, 6) hours: 3 jobs
	// [6, 24) hours: 1 jobs
	// over a day: 1
}
