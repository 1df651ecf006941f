// Package schedheap freezes the binary-heap event scheduler the engine
// used before the calendar-queue rewrite. Like internal/core/oracle for
// the probability kernel, it is a behavioural reference, not production
// code: the scheduler fuzz/property tests dispatch identical operation
// sequences through this heap and the live timing wheel and require
// bit-identical event order, and internal/sim's
// BenchmarkEngineSteadyStateHeap times it against the wheel.
//
// The implementation is the PR 2 engine verbatim (event heap ordered by
// (time, seq) with lazy reaping of cancelled residents), minus the
// simulation-facing conveniences the comparison does not need. Do not
// "improve" it — its value is that it stays exactly what the simulator
// used to run on.
package schedheap

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback handle, cancellable until it fires.
type Event struct {
	time     float64
	seq      uint64
	fire     func()
	canceled bool
	index    int     // heap index, -1 once removed
	owner    *Engine // engine whose heap holds the event
}

// Time returns the simulation time the event is scheduled for.
func (e *Event) Time() float64 { return e.time }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The heap slot is reclaimed lazily.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.owner != nil && e.index >= 0 {
		e.owner.canceledPending++
		e.owner.maybeReap()
	}
}

// Canceled reports whether the event was cancelled.
func (e *Event) Canceled() bool { return e.canceled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is the frozen heap-based event loop. The zero value is ready to
// use at time 0.
type Engine struct {
	now        float64
	seq        uint64
	events     eventHeap
	dispatched uint64

	// canceledPending counts cancelled events still resident in the heap.
	canceledPending int
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Dispatched returns the number of events fired so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending returns the number of live (non-cancelled) events still queued.
func (e *Engine) Pending() int { return len(e.events) - e.canceledPending }

// Schedule queues fire to run at absolute time at.
func (e *Engine) Schedule(at float64, fire func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("schedheap: scheduling event at %g before now %g", at, e.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("schedheap: scheduling event at invalid time %g", at))
	}
	if fire == nil {
		panic("schedheap: scheduling nil callback")
	}
	ev := &Event{time: at, seq: e.seq, fire: fire, owner: e}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// ScheduleAfter queues fire to run d seconds from now.
func (e *Engine) ScheduleAfter(d float64, fire func()) *Event {
	return e.Schedule(e.now+d, fire)
}

// Step fires the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.canceled {
			e.canceledPending--
			continue
		}
		e.now = ev.time
		e.dispatched++
		ev.fire()
		return true
	}
	return false
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time <= t, then advances the clock to t.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("schedheap: RunUntil(%g) before now %g", t, e.now))
	}
	for len(e.events) > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.time > t {
			break
		}
		e.Step()
	}
	e.now = t
}

// peek returns the earliest non-cancelled event without removing it,
// reaping cancelled heads along the way.
func (e *Engine) peek() *Event {
	for len(e.events) > 0 {
		head := e.events[0]
		if !head.canceled {
			return head
		}
		heap.Pop(&e.events)
		e.canceledPending--
	}
	return nil
}

// reapMinCancelled is the lazy-reap floor.
const reapMinCancelled = 64

// maybeReap compacts the heap when cancelled events make up at least half
// of it (and clear the floor).
func (e *Engine) maybeReap() {
	if e.canceledPending < reapMinCancelled || 2*e.canceledPending < len(e.events) {
		return
	}
	live := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			ev.index = -1
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = nil // release the dead tail for GC
	}
	e.events = live
	for i, ev := range e.events {
		ev.index = i
	}
	heap.Init(&e.events)
	e.canceledPending = 0
}
