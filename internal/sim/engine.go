// Package sim is the discrete-event engine and the data-center simulation
// built on it.
//
// The engine is an indexed 4-ary min-heap on (at, seq): events carry a
// timestamp and a Tag (or, through Schedule, a callback), and Run
// dispatches them in time order with FIFO tie-breaking (sequence
// numbers), so runs are deterministic. Schedule, Cancel and extraction
// are O(log n); records are recycled through a slab-backed freelist (the
// steady-state loop allocates nothing), and Cancel removes the event at
// once, so Pending() is an exact live count. The cloud simulation
// (cloudsim.go) queues only tags, dispatched by its one switch,
// simulator.fire; its arrivals chain, each queuing the next, so the heap
// holds O(live VMs + PMs) events.
package sim

import (
	"fmt"
	"math"
)

// slabSize is how many event records one freelist refill allocates.
const slabSize = 256

// record is one scheduled event, recycled through the engine's freelist.
// An Event handle carries the (record, seq) pair, so a stale handle can
// never act on a recycled record.
type record struct {
	seq  uint64 // engine-unique; 0 marks a free or fired record
	pos  int    // index of the record's slot in Engine.heap while queued
	fire func() // nil for a tagged event, which fires through Engine.handle
	tag  Tag    // zero Kind = untagged

	next  *record // freelist link
	owner *Engine
}

// slot is one heap entry; the key sits in the array, so sifts compare in it.
type slot struct {
	at  float64
	seq uint64
	rec *record
}

// before is the dispatch order: time, then sequence number.
func (a slot) before(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Event is a cancellation handle for a scheduled event, a small value
// (the zero value is inert). It pins its event's sequence number, so
// Cancel is a safe no-op once the event has fired, even though the record
// has been recycled for a later event.
type Event struct {
	rec *record
	seq uint64
}

// Cancel removes the event from the queue and reports whether it did; on
// a fired, cancelled or zero handle it is a no-op returning false. The
// event leaves the heap at once, so disarmed timers never linger.
func (ev Event) Cancel() bool {
	rec := ev.rec
	if rec == nil || rec.seq != ev.seq {
		return false
	}
	e := rec.owner
	e.remove(rec.pos)
	e.recycle(rec)
	return true
}

// Engine is the event loop. The zero value is ready to use at time 0; an
// Engine must not be copied after first use.
type Engine struct {
	now        float64
	seq        uint64
	dispatched uint64

	heap []slot
	free *record

	// handle fires every tagged event; newSimulator installs the simulator's.
	handle func(Tag)
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Dispatched returns the number of events fired so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending returns the exact number of events queued.
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule queues fire to run at absolute time at. Scheduling in the past
// panics: a DES that silently reorders time produces wrong results.
func (e *Engine) Schedule(at float64, fire func()) Event {
	if fire == nil {
		panic("sim: scheduling nil callback")
	}
	e.seq++
	return e.schedule(at, e.seq, Tag{}, fire)
}

// ScheduleTag queues tag at absolute time at, for the engine's handle. A
// tagged event is all data, so a checkpoint can write it; an untagged one
// makes SnapshotEvents fail. The simulation layer queues nothing else.
func (e *Engine) ScheduleTag(at float64, tag Tag) Event {
	if tag.Kind == 0 {
		panic("sim: ScheduleTag with zero Kind; use Schedule for untagged events")
	}
	if e.handle == nil {
		panic("sim: ScheduleTag on an engine with no handle")
	}
	e.seq++
	return e.schedule(at, e.seq, tag, nil)
}

// scheduleSeq queues tag at time at under seq, a sequence number taken
// earlier by reserve: the event sorts in (at, seq) order exactly as if it
// had been scheduled when its number was reserved.
func (e *Engine) scheduleSeq(at float64, seq uint64, tag Tag) Event {
	return e.schedule(at, seq, tag, nil)
}

// reserve takes the next n sequence numbers off the engine's own counter
// for later scheduleSeq calls and returns base: the block is base+1 …
// base+n.
func (e *Engine) reserve(n int) (base uint64) {
	base = e.seq
	e.seq += uint64(n)
	return base
}

func (e *Engine) schedule(at float64, seq uint64, tag Tag, fire func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", at, e.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: scheduling event at invalid time %g", at))
	}
	rec := e.alloc()
	rec.seq = seq
	rec.fire = fire
	rec.tag = tag
	e.heap = append(e.heap, slot{at: at, seq: seq, rec: rec})
	e.up(len(e.heap) - 1)
	return Event{rec: rec, seq: seq}
}

// ScheduleAfter queues fire to run d seconds from now.
func (e *Engine) ScheduleAfter(d float64, fire func()) Event {
	return e.Schedule(e.now+d, fire)
}

// Step fires the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	e.remove(0)
	e.now = top.at
	e.dispatched++
	rec := top.rec
	fire, tag := rec.fire, rec.tag
	// Recycle before firing: a Cancel of this event from its own handler
	// is a no-op, and nested Schedules may reuse the record.
	e.recycle(rec)
	if fire != nil {
		fire()
	} else {
		e.handle(tag)
	}
	return true
}

// PeekNextEventTime returns the next event's (at, seq) key; ok is false
// when the queue is empty.
func (e *Engine) PeekNextEventTime() (at float64, seq uint64, ok bool) {
	if len(e.heap) == 0 {
		return 0, 0, false
	}
	return e.heap[0].at, e.heap[0].seq, true
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// alloc takes a record from the freelist, refilling it a slab at a time.
func (e *Engine) alloc() *record {
	if e.free == nil {
		slab := make([]record, slabSize)
		for i := range slab {
			slab[i].owner = e
			slab[i].next = e.free
			e.free = &slab[i]
		}
	}
	rec := e.free
	e.free = rec.next
	rec.next = nil
	return rec
}

// recycle returns a record to the freelist, invalidating its handles.
func (e *Engine) recycle(rec *record) {
	rec.seq = 0
	rec.fire = nil
	rec.tag = Tag{}
	rec.next = e.free
	e.free = rec
}

// remove takes the slot at i out of the heap: the last slot fills the
// hole and sifts whichever way restores the order.
func (e *Engine) remove(i int) {
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
	}
	e.heap[last] = slot{}
	e.heap = e.heap[:last]
	if i < last && !e.down(i) {
		e.up(i)
	}
}

// up moves the slot at i rootward past every parent it precedes.
func (e *Engine) up(i int) {
	h := e.heap
	s := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].rec.pos = i
		i = p
	}
	h[i] = s
	s.rec.pos = i
}

// down moves the slot at i below every child that precedes it, reporting
// whether it moved.
func (e *Engine) down(i int) bool {
	h := e.heap
	s, start := h[i], i
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, len(h)); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(s) {
			break
		}
		h[i] = h[m]
		h[i].rec.pos = i
		i = m
	}
	h[i] = s
	s.rec.pos = i
	return i > start
}

// VerifyQueue checks the heap: each slot's record live, this engine's,
// indexed at the slot and of the slot's seq; no slot before its parent or
// the clock. internal/audit runs it as the per-event "queue" check.
func (e *Engine) VerifyQueue() error {
	for i, s := range e.heap {
		switch rec := s.rec; {
		case rec == nil || rec.seq == 0:
			return fmt.Errorf("sim: heap slot %d holds a recycled record", i)
		case rec.owner != e:
			return fmt.Errorf("sim: heap slot %d holds a record owned by another engine", i)
		case rec.pos != i:
			return fmt.Errorf("sim: heap slot %d holds a record indexed at %d", i, rec.pos)
		case rec.seq != s.seq:
			return fmt.Errorf("sim: heap slot %d has seq %d, its record %d", i, s.seq, rec.seq)
		case i > 0 && s.before(e.heap[(i-1)/4]):
			return fmt.Errorf("sim: heap slot %d (%g, %d) precedes its parent", i, s.at, s.seq)
		case s.at < e.now:
			return fmt.Errorf("sim: queued event at t=%g is before now %g", s.at, e.now)
		}
	}
	return nil
}
