//go:build race

package sim

// Under the race detector, which runs these single-threaded tests five to
// ten times slower, each is trimmed to fit the 5 s a tier-1 test may take
// on a 2-CPU host; the plain run keeps the whole scope (budget_test.go).
const (
	// untouchedRequests: the first 100 requests of the week, not 200 (the
	// whole test took 11–12 s under -race).
	untouchedRequests = 100

	// holdUnwindAudited: seeds 1 and 2 audit their first run; seeds 3–6
	// compare two unaudited runs (the whole test took 22–27 s).
	holdUnwindAudited = 2

	// crashStride: every third boundary, the first included (the whole
	// sweep took 9–11 s).
	crashStride = 3
)
