package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram accumulates samples into fixed-edge bins. Edges must be strictly
// increasing; a sample x lands in bin i when edges[i] <= x < edges[i+1].
// Samples below the first edge are counted in Under, samples at or above the
// last edge in Over.
type Histogram struct {
	edges []float64
	count []int
	Under int
	Over  int
}

// NewHistogram creates a histogram with the given bin edges. It panics if
// fewer than two edges are supplied or the edges are not strictly
// increasing.
func NewHistogram(edges ...float64) *Histogram {
	if len(edges) < 2 {
		panic("stats: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("stats: histogram edges must be strictly increasing (%g then %g)", edges[i-1], edges[i]))
		}
	}
	return &Histogram{
		edges: append([]float64(nil), edges...),
		count: make([]int, len(edges)-1),
	}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.edges[0]:
		h.Under++
	case x >= h.edges[len(h.edges)-1]:
		h.Over++
	default:
		// Binary search: first edge strictly greater than x, minus one.
		i := sort.SearchFloat64s(h.edges, x)
		// SearchFloat64s returns the first index with edges[i] >= x;
		// when edges[i] == x the sample belongs to bin i, otherwise to
		// bin i-1.
		if i == len(h.edges) || h.edges[i] != x {
			i--
		}
		h.count[i]++
	}
}

// BinRange returns the [lo, hi) interval of bin i.
func (h *Histogram) BinRange(i int) (lo, hi float64) {
	return h.edges[i], h.edges[i+1]
}

// String renders a compact textual histogram with proportional bars, the
// kind of output the experiment harness prints for Figure 2's workload
// characteristics.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := 0
	for _, c := range h.count {
		if c > maxCount {
			maxCount = c
		}
	}
	const barWidth = 40
	for i, c := range h.count {
		lo, hi := h.BinRange(i)
		bar := 0
		if maxCount > 0 {
			bar = int(math.Round(float64(c) / float64(maxCount) * barWidth))
		}
		fmt.Fprintf(&b, "[%10.4g, %10.4g) %6d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	if h.Under > 0 {
		fmt.Fprintf(&b, "underflow %d\n", h.Under)
	}
	if h.Over > 0 {
		fmt.Fprintf(&b, "overflow %d\n", h.Over)
	}
	return b.String()
}
