package core

import (
	"sync"
	"sync/atomic"
)

// This file is the in-run parallelism layer behind MatrixOptions.Workers:
// the span scheduler the candidate index's kernels fan out on when a caller
// asks for more than one worker (the dense Matrix is strictly serial). It is
// kept only as the seam bench/ drives through sim.Config.KernelWorkers;
// ROADMAP item 2 deletes it.
//
// Determinism contract (DESIGN.md §15): the one parallel kernel in this
// package, a shape's first-seen fleet pass, is a pure fan-out over
// independent units — PM shards — whose per-unit computation reads only
// shared immutable state (the prewarmed class table) and writes only
// unit-indexed slots; the groups are then built from the slots serially in
// PM-ID order, so the result is bit-identical to the serial pass at any
// worker count. Worker count changes scheduling, never values.

// claimWorkers resolves a MatrixOptions.Workers request for a loop of
// `items` independent units: zero and one stay strictly serial on the
// calling goroutine; a count above one is honored verbatim up to items
// (one worker per unit being the maximum useful parallelism) — an explicit
// count is an equivalence-testing and benchmarking contract, honored even
// on hosts with fewer cores.
func claimWorkers(requested, items int) int {
	if requested > items {
		requested = items
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// runSpans executes body over [0, n) split into spans drawn from a shared
// atomic cursor by `workers` goroutines (the calling goroutine is one of
// them). Several spans per worker keep the load balanced when unit costs
// vary, without paying one cursor bump per unit. Which worker claims which
// span is nondeterministic, so body must confine its writes to
// element-indexed state of its own span.
func runSpans(workers, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := max(n/(workers*8), 1)
	if workers <= 1 || n <= chunk {
		body(0, n)
		return
	}
	var cursor atomic.Int64
	work := func() {
		for {
			lo := int(cursor.Add(1)-1) * chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Parallel runs the given functions concurrently (the calling goroutine
// executes the first) and returns when all have finished. It exists for
// coarse-grained fan-out of a fixed handful of independent jobs — the
// auditor's differential rebuilds — where each job already owns its state.
func Parallel(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	for _, fn := range fns[1:] {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	fns[0]()
	wg.Wait()
}
