package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the in-run parallelism layer behind MatrixOptions.Workers:
// a process-wide goroutine budget shared with the replication-sweep runner
// (exp.RunSweep) plus the span scheduler the candidate index's kernels fan
// out on (the dense Matrix is strictly serial).
//
// Determinism contract (DESIGN.md §15): every parallel kernel in this
// package is a pure fan-out over independent units — columns or PM shards
// — whose per-unit computation reads only shared immutable
// state (prewarmed memos) and writes only unit-indexed slots or
// worker-private scratch. Order-sensitive merges (the candidate index's
// stale-PM sweep) use fixed contiguous spans with one result slot per
// span, applied serially in span order, so the result is bit-identical to
// the serial scan at any worker count. Worker count changes scheduling,
// never values.

// workerTokens is the process-wide budget of *extra* goroutines beyond the
// calling one: GOMAXPROCS-1 tokens. Auto-resolved kernels (Workers == 0)
// spawn only as many workers as they can borrow, so a kernel running under
// a saturated sweep (which borrows its workers' tokens up front) stays
// serial instead of oversubscribing the host. Explicit worker counts
// (Workers > 1) borrow best-effort for accounting but always spawn the
// requested goroutines — an explicit count is an equivalence-testing and
// benchmarking contract, honored even on hosts with fewer cores.
var workerTokens = func() chan struct{} {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 0 {
		n = 0
	}
	ch := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		ch <- struct{}{}
	}
	return ch
}()

// BorrowWorkers takes up to n tokens from the process-wide worker budget
// without blocking and reports how many it got. Callers must pass the
// result to ReturnWorkers when their parallel section ends. The sweep
// runner borrows its worker count so nested kernel auto-parallelism sees a
// drained budget; returning more tokens than were borrowed corrupts the
// budget (ReturnWorkers would block).
func BorrowWorkers(n int) int {
	for got := 0; ; got++ {
		if got >= n {
			return got
		}
		select {
		case <-workerTokens:
		default:
			return got
		}
	}
}

// ReturnWorkers gives back n tokens previously obtained from
// BorrowWorkers.
func ReturnWorkers(n int) {
	for i := 0; i < n; i++ {
		workerTokens <- struct{}{}
	}
}

// claimWorkers resolves a MatrixOptions.Workers request for a loop of
// `items` independent units: the worker count to use and the tokens
// borrowed from the budget (always ReturnWorkers'd by the caller).
// Zero requests auto-size to GOMAXPROCS bounded by the free budget;
// one — the default for small problems — stays strictly serial on the
// calling goroutine; an explicit count above one is honored verbatim
// (capped at items, one worker per unit being the maximum useful
// parallelism).
func claimWorkers(requested, items int) (workers, borrowed int) {
	if items < 1 {
		items = 1
	}
	switch {
	case requested == 1 || items == 1:
		return 1, 0
	case requested > 1:
		w := requested
		if w > items {
			w = items
		}
		if w == 1 {
			return 1, 0
		}
		return w, BorrowWorkers(w - 1)
	default:
		w := runtime.GOMAXPROCS(0)
		if w > items {
			w = items
		}
		if w <= 1 {
			return 1, 0
		}
		borrowed = BorrowWorkers(w - 1)
		return borrowed + 1, borrowed
	}
}

// runSpans executes body over [0, n) split into chunk-sized spans drawn
// from a shared atomic cursor by `workers` goroutines (the calling
// goroutine is one of them). Which worker claims which span is
// nondeterministic, so body must confine its writes to element-indexed
// state of its own span plus scratch keyed by the worker argument — the
// discipline every kernel in this package follows.
func runSpans(workers, n, chunk int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n <= chunk {
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	work := func(w int) {
		for {
			lo := int(cursor.Add(1)-1) * chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(w, lo, hi)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}

// spanChunk picks a span size for n units over w workers: several spans
// per worker keep the load balanced when unit costs vary, without paying
// one cursor bump per unit.
func spanChunk(n, w int) int {
	chunk := n / (w * 8)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// Parallel runs the given functions concurrently (the calling goroutine
// executes the first) and returns when all have finished. It exists for
// coarse-grained fan-out of a fixed handful of independent jobs — the
// auditor's differential rebuilds — where each job already owns its state;
// the budget is charged best-effort for accounting, but all functions
// always run concurrently (they would otherwise serialize an audit that is
// pure overlap).
func Parallel(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if len(fns) == 1 {
		fns[0]()
		return
	}
	borrowed := BorrowWorkers(len(fns) - 1)
	defer ReturnWorkers(borrowed)
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
