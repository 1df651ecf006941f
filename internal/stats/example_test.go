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
	fmt.Print(h)
	// Output:
	// [         0,          1)      2 ###########################
	// [         1,          6)      3 ########################################
	// [         6,         24)      1 #############
	// overflow 1
}
