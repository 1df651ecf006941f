// Package sim contains the discrete-event simulation engine and the cloud
// data-center simulation built on it.
//
// The engine is a calendar-queue DES scheduler: events carry a timestamp
// and a Tag (or, through Schedule, a callback), and Run dispatches them in
// non-decreasing time order with FIFO tie-breaking (logical sequence
// numbers), so simulations are fully deterministic. Schedule, Cancel, and
// extraction are O(1) amortized, event records are recycled through a
// slab-backed freelist (the steady-state event loop allocates nothing),
// and cancellation unlinks immediately — no tombstones, so Pending() is an
// exact live count by construction. The cloud simulation (cloudsim.go)
// queues only tags — VM arrivals, departures, PM power transitions,
// failures, migration cutovers and control-period ticks — and its one
// switch, simulator.fire, dispatches them.
//
// The frozen pre-rewrite binary-heap scheduler lives in
// internal/sim/schedheap; the scheduler fuzz and property tests require
// bit-identical dispatch order between the two, and
// BenchmarkEngineSteadyState{,Heap} time the one against the other.
package sim

import (
	"fmt"
	"math"
	"unsafe"
)

// Calendar-queue geometry. Bucket counts are powers of two so the
// bucket-of-year computation is a mask; the queue resizes between
// minBuckets and maxBuckets to keep the live population within a small
// constant factor of the bucket count.
const (
	minBuckets = 8
	maxBuckets = 1 << 21

	// slabSize is how many event records one freelist refill allocates;
	// amortized, Schedule allocates 1/slabSize objects per call while the
	// population grows and zero once it has peaked.
	slabSize = 256

	// histN is the dispatch-history window the adaptive width estimator
	// samples: the spacing of the last histN fired events is the best
	// predictor of near-future event density (far-future timers — e.g.
	// failure events days ahead — would skew a global min/max estimate).
	histN = 32

	// maxBucketG caps the global bucket index so the float→int conversion
	// in gFor can never overflow int64 for any (time, width) pair.
	maxBucketG = int64(1) << 62
)

// record is one scheduled event resident in the calendar queue: an
// intrusive node of its bucket's doubly-linked list, ordered by
// (at, seq). Records are owned by the engine and recycled through its
// freelist; the public Event handle carries the (record, seq) pair so a
// stale handle — one whose event already fired or was cancelled — can
// never act on a recycled record.
type record struct {
	at   float64
	seq  uint64 // engine-unique; 0 marks a free or fired record
	g    int64  // global bucket index: floor(at / width) under the current width
	fire func() // nil for a tagged event, which fires through Engine.handle
	tag  Tag    // zero Kind = untagged

	prev, next *record
	owner      *Engine
}

// Event is a cancellation handle for a scheduled event. It is a small
// value (copy freely; the zero value is inert): the handle pins the
// engine-unique sequence number of the event it was issued for, so Cancel
// and Live are safe no-ops after the event has fired, even though the
// underlying record has been recycled for a later event.
type Event struct {
	rec *record
	seq uint64
	at  float64
}

// Time returns the simulation time the event was scheduled for.
func (ev Event) Time() float64 { return ev.at }

// Live reports whether the event is still queued: not yet fired and not
// cancelled.
func (ev Event) Live() bool { return ev.rec != nil && ev.rec.seq == ev.seq }

// Cancel removes the event from the queue and reports whether it did.
// Cancelling an already-fired, already-cancelled, or zero-value handle is
// a no-op returning false. Cancellation is O(1): the record is unlinked
// from its bucket immediately and recycled — cancelled events never
// linger in the queue, so a long run that disarms many far-future timers
// (departures, failure events) cannot grow it.
func (ev Event) Cancel() bool {
	rec := ev.rec
	if rec == nil || rec.seq != ev.seq {
		return false
	}
	e := rec.owner
	e.unlink(rec)
	e.count--
	e.recycle(rec)
	e.maybeShrink()
	return true
}

// bucket is one calendar day: a doubly-linked list of records sorted by
// (at, seq).
type bucket struct {
	head, tail *record
}

// bucketsPerLine is how many 16-byte bucket headers fit one cache line.
const bucketsPerLine = 64 / int(unsafe.Sizeof(bucket{}))

// alignedBuckets returns a length-n bucket slice whose base sits on a
// 64-byte boundary, so the extraction search — which walks consecutive
// bucket heads until one qualifies — reads exactly four headers per cache
// line with no line straddled. The over-allocation is bucketsPerLine-1
// headers (48 bytes); if the runtime ever hands back a base that is not
// bucket-aligned (so the offset cannot land exactly on a line boundary),
// the slice is used as allocated — alignment here is an optimization, not
// a correctness requirement.
func alignedBuckets(n int) []bucket {
	raw := make([]bucket, n+bucketsPerLine-1)
	rem := uintptr(unsafe.Pointer(&raw[0])) % 64
	if rem == 0 {
		return raw[:n:n]
	}
	if rem%unsafe.Sizeof(bucket{}) != 0 {
		return raw[:n:n]
	}
	off := int((64 - rem) / unsafe.Sizeof(bucket{}))
	return raw[off : off+n : off+n]
}

// Engine is the event loop. The zero value is ready to use at time 0; an
// Engine must not be copied after first use.
type Engine struct {
	now        float64
	seq        uint64
	dispatched uint64

	// Calendar queue state: count live events spread over len(buckets)
	// buckets of width seconds each; cur is the global bucket cursor the
	// extraction search resumes from (an index into the infinite bucket
	// sequence, not the ring — bucket = cur & mask, year = cur / len).
	count   int
	buckets []bucket
	mask    int
	width   float64
	cur     int64

	free *record

	// seqShared, when set, replaces the engine-local seq counter with a
	// counter shared by several engines. The sharded multi-cell engine
	// points every per-cell Engine at one counter so sequence numbers are
	// unique ACROSS cells — which is what makes the orchestrator's merged
	// (at, seq) order identical to the order one monolithic engine would
	// have produced (DESIGN.md §14). nil (the default) keeps the local
	// counter; a single engine's behavior is unchanged.
	seqShared *uint64

	// hist is the ring of recent dispatch timestamps feeding the adaptive
	// width estimator at resize time.
	hist    [histN]float64
	histPos int
	histLen int

	// handle fires every tagged event; newScheduler installs the simulator's.
	handle func(Tag)
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Dispatched returns the number of events fired so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending returns the number of live events still queued. Cancellation is
// eager, so this is an exact count — a backlog of disarmed timers can
// never keep a simulation alive.
func (e *Engine) Pending() int { return e.count }

// Schedule queues fire to run at absolute time at. Scheduling in the past
// is a programming error and panics: a DES that silently reorders time
// produces subtly wrong results.
func (e *Engine) Schedule(at float64, fire func()) Event {
	return e.schedule(at, Tag{}, fire)
}

// ScheduleTag queues tag at absolute time at, to be passed to the engine's
// handle when it fires. A tagged event is all data, so SnapshotEvents can
// write it and RestoreState re-queue it; an untagged one (plain Schedule)
// makes SnapshotEvents fail. The simulation layer queues nothing else.
func (e *Engine) ScheduleTag(at float64, tag Tag) Event {
	if tag.Kind == 0 {
		panic("sim: ScheduleTag with zero Kind; use Schedule for untagged events")
	}
	if e.handle == nil {
		panic("sim: ScheduleTag on an engine with no handle")
	}
	return e.schedule(at, tag, nil)
}

func (e *Engine) schedule(at float64, tag Tag, fire func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", at, e.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: scheduling event at invalid time %g", at))
	}
	if fire == nil && tag.Kind == 0 {
		panic("sim: scheduling nil callback")
	}
	if e.buckets == nil {
		e.initQueue()
	}
	rec := e.alloc()
	rec.at = at
	rec.seq = e.nextSeq()
	rec.g = e.gFor(at)
	rec.fire = fire
	rec.tag = tag
	e.insert(rec)
	e.count++
	if e.count > 2*len(e.buckets) && len(e.buckets) < maxBuckets {
		e.resize(2 * len(e.buckets))
	}
	return Event{rec: rec, seq: rec.seq, at: at}
}

// nextSeq mints the next sequence number from the shared counter when
// one is attached, else from the engine's own.
func (e *Engine) nextSeq() uint64 {
	if e.seqShared != nil {
		*e.seqShared++
		return *e.seqShared
	}
	e.seq++
	return e.seq
}

// UseSharedSeq attaches a shared sequence counter. It must be called
// before the first Schedule — re-seating the counter mid-run would let
// two live events carry the same sequence number.
func (e *Engine) UseSharedSeq(ctr *uint64) {
	if e.seq != 0 || e.count != 0 || e.dispatched != 0 {
		panic("sim: UseSharedSeq on a used engine")
	}
	e.seqShared = ctr
}

// ScheduleAfter queues fire to run d seconds from now.
func (e *Engine) ScheduleAfter(d float64, fire func()) Event {
	return e.Schedule(e.now+d, fire)
}

// Step fires the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	rec := e.minRecord()
	if rec == nil {
		return false
	}
	e.unlink(rec)
	e.count--
	e.now = rec.at
	e.dispatched++
	e.noteDispatch(rec.at)
	fire, tag := rec.fire, rec.tag
	// Recycle before firing: a Cancel of this event from inside its own
	// handler (or any later turn) sees a stale sequence number and is a
	// no-op, and the record is immediately reusable by nested Schedules.
	e.recycle(rec)
	e.maybeShrink()
	if fire != nil {
		fire()
	} else {
		e.handle(tag)
	}
	return true
}

// HasPendingEvents reports whether any live event is queued. Together
// with PeekNextEventTime and ProcessNextEvent it is the cell.Queue
// decomposition of the engine, which the multi-cell orchestrator merges.
func (e *Engine) HasPendingEvents() bool { return e.count > 0 }

// PeekNextEventTime returns the (at, seq) ordering key of the next event
// to fire without dispatching it. ok is false when the queue is empty.
// Peeking may advance the extraction cursor (search state only); it
// never changes dispatch order.
func (e *Engine) PeekNextEventTime() (at float64, seq uint64, ok bool) {
	rec := e.minRecord()
	if rec == nil {
		return 0, 0, false
	}
	return rec.at, rec.seq, true
}

// ProcessNextEvent dispatches the next event, returning false when the
// queue is empty. It is Step under the cell.Queue interface's name.
func (e *Engine) ProcessNextEvent() bool { return e.Step() }

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time <= t, then advances the clock to t.
// Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%g) before now %g", t, e.now))
	}
	for {
		next := e.minRecord()
		if next == nil || next.at > t {
			break
		}
		e.Step()
	}
	e.now = t
}

// --- calendar queue internals ---

func (e *Engine) initQueue() {
	e.buckets = alignedBuckets(minBuckets)
	e.mask = minBuckets - 1
	e.width = 1
	e.cur = e.gFor(e.now)
}

// gFor maps an event time to its global bucket index under the current
// width. The mapping is monotone in at (IEEE division and truncation both
// are), which is what makes the year-window search order-correct; the
// clamp keeps the conversion in int64 range for any time/width pair.
func (e *Engine) gFor(at float64) int64 {
	q := at / e.width
	if q >= float64(maxBucketG) {
		return maxBucketG
	}
	return int64(q)
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

// recycle returns a record to the freelist. Clearing seq invalidates
// every outstanding handle; clearing fire releases the closure to the GC.
func (e *Engine) recycle(rec *record) {
	rec.seq = 0
	rec.fire = nil
	rec.tag = Tag{}
	rec.prev = nil
	rec.next = e.free
	e.free = rec
}

// insert links rec into its bucket, keeping the list sorted by (at, seq).
// The scan starts at the tail: fresh events carry the highest seq so far,
// so same-time and ascending-time schedules (the common simulation
// patterns) insert in O(1).
func (e *Engine) insert(rec *record) {
	// Keep the extraction cursor at or before the earliest live record. A
	// peek that found only a far-future event (e.g. RunUntil stopping
	// short of it) legitimately parks the cursor way ahead of the clock;
	// a later schedule between the clock and that event must drag the
	// cursor back or the forward scan would start past it.
	if rec.g < e.cur {
		e.cur = rec.g
	}
	b := &e.buckets[int(rec.g)&e.mask]
	p := b.tail
	for p != nil && (p.at > rec.at || (p.at == rec.at && p.seq > rec.seq)) {
		p = p.prev
	}
	if p == nil {
		rec.next = b.head
		if b.head != nil {
			b.head.prev = rec
		} else {
			b.tail = rec
		}
		b.head = rec
	} else {
		rec.next = p.next
		rec.prev = p
		if p.next != nil {
			p.next.prev = rec
		} else {
			b.tail = rec
		}
		p.next = rec
	}
}

// unlink removes rec from its bucket's list.
func (e *Engine) unlink(rec *record) {
	b := &e.buckets[int(rec.g)&e.mask]
	if rec.prev != nil {
		rec.prev.next = rec.next
	} else {
		b.head = rec.next
	}
	if rec.next != nil {
		rec.next.prev = rec.prev
	} else {
		b.tail = rec.prev
	}
	rec.prev, rec.next = nil, nil
}

// minRecord returns the earliest (at, seq) record without removing it, or
// nil when the queue is empty. It resumes the search at the persistent
// cursor: a bucket head qualifies when its global index is within the
// cursor's window (heads are bucket minima and the index is monotone in
// time, so the first qualifying head is the global minimum — see the
// determinism property tests). If a whole year of buckets is empty, the
// search falls back to a direct scan of all bucket heads and jumps the
// cursor to the winner.
//
// The cursor never overtakes a live event: every live record r keeps
// r.g >= cur (insert drags the cursor back below any record landing
// before it, dispatch sets it to the dispatched minimum, and resize
// re-derives it from the clock), so the forward scan is exhaustive.
func (e *Engine) minRecord() *record {
	if e.count == 0 {
		return nil
	}
	cur := e.cur
	for i := 0; i < len(e.buckets); i++ {
		if h := e.buckets[int(cur)&e.mask].head; h != nil && h.g <= cur {
			e.cur = cur
			return h
		}
		cur++
	}
	var best *record
	for i := range e.buckets {
		h := e.buckets[i].head
		if h != nil && (best == nil || h.at < best.at || (h.at == best.at && h.seq < best.seq)) {
			best = h
		}
	}
	e.cur = best.g
	return best
}

// noteDispatch feeds the adaptive width estimator's dispatch-time ring.
func (e *Engine) noteDispatch(at float64) {
	e.hist[e.histPos] = at
	e.histPos = (e.histPos + 1) % histN
	if e.histLen < histN {
		e.histLen++
	}
}

// widthHint proposes a bucket width for the next geometry. Preference
// order: the spacing of recent dispatches (tracks the operating event
// rate and is immune to far-future outliers), then the span of the
// pending events (the only signal during a bulk pre-load), then the
// current width.
func (e *Engine) widthHint(minAt, maxAt float64) float64 {
	if e.histLen >= 8 {
		newest := e.hist[(e.histPos+histN-1)%histN]
		oldest := e.hist[0]
		if e.histLen == histN {
			oldest = e.hist[e.histPos]
		}
		if span := newest - oldest; span > 0 {
			return 3 * span / float64(e.histLen-1)
		}
	}
	if e.count > 1 {
		if span := maxAt - minAt; span > 0 {
			return 3 * span / float64(e.count)
		}
	}
	return e.width
}

// maybeShrink halves the bucket count when the population has dropped
// well below it. Growth is checked inline in Schedule; both thresholds
// leave a wide hysteresis band so a population oscillating around a
// boundary does not thrash the geometry.
func (e *Engine) maybeShrink() {
	if len(e.buckets) > minBuckets && 2*e.count < len(e.buckets) {
		e.resize(len(e.buckets) / 2)
	}
}

// resize re-buckets every live record into n buckets with a freshly
// estimated width. O(count), amortized across the schedules/removals that
// moved the population across a threshold.
func (e *Engine) resize(n int) {
	var chain *record
	minAt, maxAt := math.Inf(1), math.Inf(-1)
	for i := range e.buckets {
		for rec := e.buckets[i].head; rec != nil; {
			next := rec.next
			rec.prev = nil
			rec.next = chain
			chain = rec
			if rec.at < minAt {
				minAt = rec.at
			}
			if rec.at > maxAt {
				maxAt = rec.at
			}
			rec = next
		}
		e.buckets[i] = bucket{}
	}
	if n != len(e.buckets) {
		e.buckets = alignedBuckets(n)
		e.mask = n - 1
	}
	w := e.widthHint(minAt, maxAt)
	if !(w > 0) || math.IsInf(w, 0) {
		w = 1
	}
	e.width = w
	e.cur = e.gFor(e.now)
	for rec := chain; rec != nil; {
		next := rec.next
		rec.prev, rec.next = nil, nil
		rec.g = e.gFor(rec.at)
		e.insert(rec)
		rec = next
	}
}

// VerifyQueue walks the whole calendar and checks its structural
// invariants: the live-event count matches a full queue walk, every
// bucket list is consistently linked and sorted by (at, seq), every
// record sits in the bucket its time maps to under the current width, and
// no event is scheduled before the current clock. The invariant auditor
// (internal/audit) runs it as the per-event "queue" check; it is O(count)
// and allocation-free.
func (e *Engine) VerifyQueue() error {
	walked := 0
	for i := range e.buckets {
		b := &e.buckets[i]
		var prev *record
		for rec := b.head; rec != nil; rec = rec.next {
			walked++
			if walked > e.count {
				break // count mismatch reported below; avoid cycles running away
			}
			if rec.seq == 0 {
				return fmt.Errorf("sim: queue holds a recycled record in bucket %d", i)
			}
			if rec.owner != e {
				return fmt.Errorf("sim: bucket %d holds a record owned by another engine", i)
			}
			if rec.prev != prev {
				return fmt.Errorf("sim: broken prev link in bucket %d", i)
			}
			if prev != nil && (prev.at > rec.at || (prev.at == rec.at && prev.seq > rec.seq)) {
				return fmt.Errorf("sim: bucket %d out of order: (%g, %d) before (%g, %d)",
					i, prev.at, prev.seq, rec.at, rec.seq)
			}
			if g := e.gFor(rec.at); g != rec.g {
				return fmt.Errorf("sim: record at t=%g carries bucket index %d, want %d", rec.at, rec.g, g)
			}
			if int(rec.g)&e.mask != i {
				return fmt.Errorf("sim: record with index %d resident in bucket %d, want %d",
					rec.g, i, int(rec.g)&e.mask)
			}
			if rec.at < e.now {
				return fmt.Errorf("sim: queued event at t=%g is before now %g", rec.at, e.now)
			}
			if rec.g < e.cur {
				return fmt.Errorf("sim: record with bucket index %d is behind the cursor %d", rec.g, e.cur)
			}
			prev = rec
		}
		if b.tail != prev {
			return fmt.Errorf("sim: bucket %d tail does not terminate its list", i)
		}
	}
	if walked != e.count {
		return fmt.Errorf("sim: live-event count %d != full queue walk %d", e.count, walked)
	}
	return nil
}
