package sim

import (
	"cmp"
	"slices"
	"testing"
)

// schedPair drives the engine and a sorted-slice model of it through
// identical byte-encoded operation sequences — schedules, cancels, steps,
// bounded advances, and from inside callbacks (while the fired event's
// root is open) reads, cancels and one or two nested schedules — and
// requires the dispatch sequences to be identical. The model is the
// specification: the pending events kept sorted by (time, seq), each
// schedule drawing the next sequence number, each step taking the head.
// Every engine step pops the model's head first, so a callback's
// operations apply to both at the same point.
type schedPair struct {
	t   *testing.T
	eng Engine

	model   []modelEvent
	mnow    float64
	mseq    uint64
	mfired  uint64
	elog    []int
	mlog    []int
	handles []Event  // the engine's handle for each top-level tag
	mseqs   []uint64 // the model's seq for each top-level tag
	nextTag int
	ops     int
	cases   [callbackCases]int // how often each callback operation ran
}

// The callback operations a top-level event's tag selects, counted in
// schedPair.cases: a child that fills the open root, two children (one
// fills the root, one appends), a peek that settles the root before a
// child, and a cancel of a live top-level event; every callback checks
// Pending against the model first.
const (
	cbFill = iota
	cbAppend
	cbPeek
	cbCancel
	callbackCases
)

// modelEvent is one pending event of the model.
type modelEvent struct {
	at  float64
	seq uint64
	tag int
}

// childBase offsets the tags of events spawned from inside callbacks so
// they never collide with top-level tags (and never spawn grandchildren).
const childBase = 1 << 20

func (p *schedPair) schedule(at float64) {
	tag := p.nextTag
	p.nextTag++
	p.handles = append(p.handles, p.eng.Schedule(at, func() { p.fired(tag) }))
	p.mseqs = append(p.mseqs, p.modelSchedule(at, tag))
}

// fired is a top-level event's callback. The model has already popped its
// head, so while the engine's root is open Pending must match the model;
// then tag%8 picks the operations, each applied to the engine and the
// model alike.
func (p *schedPair) fired(tag int) {
	p.elog = append(p.elog, tag)
	if got := p.eng.Pending(); got != len(p.model) {
		p.t.Fatalf("Pending inside event %d: engine=%d model=%d", tag, got, len(p.model))
	}
	switch tag % 8 {
	case 0, 5:
		p.child(1.5, childBase+tag)
	case 1:
		p.child(0.5, childBase+tag)
		p.child(2.5, 2*childBase+tag)
	case 2:
		p.cases[cbPeek]++
		p.checkPeek()
		p.child(1.5, childBase+tag)
	case 3:
		p.cancelLive(tag)
	}
}

// child schedules a childless event d seconds on in the engine and the
// model, counting whether it filled the open root or appended.
func (p *schedPair) child(d float64, tag int) {
	if p.eng.open {
		p.cases[cbFill]++
	} else {
		p.cases[cbAppend]++
	}
	p.eng.ScheduleAfter(d, func() { p.elog = append(p.elog, tag) })
	p.modelSchedule(p.mnow+d, tag)
}

// cancelLive cancels, in the engine and the model, the first top-level
// event the model holds from a tag-chosen place in its order on.
func (p *schedPair) cancelLive(tag int) {
	for i, n := 0, len(p.model); i < n; i++ {
		ev := p.model[(tag*31+i)%n]
		if ev.tag >= childBase {
			continue
		}
		p.cases[cbCancel]++
		if ce, cm := p.handles[ev.tag].Cancel(), p.modelCancel(ev.seq); !ce || !cm {
			p.t.Fatalf("Cancel of live tag %d inside event %d: engine=%v model=%v", ev.tag, tag, ce, cm)
		}
		p.checkPeek()
		return
	}
}

// checkPeek holds PeekNextEventTime to the model's head.
func (p *schedPair) checkPeek() {
	if at, seq, ok := p.eng.PeekNextEventTime(); ok != (len(p.model) > 0) ||
		ok && (at != p.model[0].at || seq != p.model[0].seq) {
		p.t.Fatalf("PeekNextEventTime: engine=(%g, %d, %v), model head %v", at, seq, ok, p.model)
	}
}

// modelSchedule inserts an event into the model in (at, seq) order.
func (p *schedPair) modelSchedule(at float64, tag int) uint64 {
	p.mseq++
	ev := modelEvent{at: at, seq: p.mseq, tag: tag}
	i, _ := slices.BinarySearchFunc(p.model, ev, compareModel)
	p.model = slices.Insert(p.model, i, ev)
	return ev.seq
}

func compareModel(a, b modelEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// stepBoth pops the model's head, then steps the engine, whose callback
// applies its operations to both; the two must fire the same event.
func (p *schedPair) stepBoth() bool {
	mok := len(p.model) > 0
	if mok {
		ev := p.model[0]
		p.model = p.model[1:]
		p.mnow = ev.at
		p.mfired++
		p.mlog = append(p.mlog, ev.tag)
	}
	if eok := p.eng.Step(); eok != mok {
		p.t.Fatalf("Step: engine=%v model=%v", eok, mok)
	}
	if n := len(p.mlog); mok && p.elog[len(p.elog)-1] != p.mlog[n-1] {
		p.t.Fatalf("dispatch %d: engine fired %d, model fired %d", n-1, p.elog[len(p.elog)-1], p.mlog[n-1])
	}
	return mok
}

// modelCancel removes the event with the given seq, reporting whether it
// was still pending.
func (p *schedPair) modelCancel(seq uint64) bool {
	i := slices.IndexFunc(p.model, func(ev modelEvent) bool { return ev.seq == seq })
	if i < 0 {
		return false
	}
	p.model = slices.Delete(p.model, i, i+1)
	return true
}

// step consumes two bytes (opcode, argument) and applies one operation to
// the engine and the model.
func (p *schedPair) step(op, arg byte) {
	switch op % 5 {
	case 0, 1: // schedule: fractional offsets with frequent ties, occasional far jumps
		d := float64(arg%32) * 0.5
		if arg%7 == 0 {
			d += float64(arg) * 64
		}
		p.schedule(p.eng.Now() + d)
	case 2: // cancel the k-th issued handle (may already be fired or cancelled)
		if n := len(p.handles); n > 0 {
			k := int(arg) % n
			if ce, cm := p.handles[k].Cancel(), p.modelCancel(p.mseqs[k]); ce != cm {
				p.t.Fatalf("Cancel of tag %d: engine=%v model=%v", k, ce, cm)
			}
		}
	case 3: // single step
		p.stepBoth()
	case 4: // bounded advance: step every event at or before to
		to := p.eng.Now() + float64(arg)
		for at, _, ok := p.eng.PeekNextEventTime(); ok && at <= to; at, _, ok = p.eng.PeekNextEventTime() {
			p.stepBoth()
		}
		if len(p.model) > 0 && p.model[0].at <= to {
			p.t.Fatalf("bounded advance to %g stopped with the model's head at %g", to, p.model[0].at)
		}
	}
	p.check()
}

func (p *schedPair) check() {
	p.ops++
	if p.eng.Now() != p.mnow {
		p.t.Fatalf("Now: engine=%g model=%g", p.eng.Now(), p.mnow)
	}
	if p.eng.Pending() != len(p.model) {
		p.t.Fatalf("Pending: engine=%d model=%d", p.eng.Pending(), len(p.model))
	}
	if p.eng.Dispatched() != p.mfired {
		p.t.Fatalf("Dispatched: engine=%d model=%d", p.eng.Dispatched(), p.mfired)
	}
	p.checkPeek()
	if p.ops%16 == 0 {
		if err := p.eng.VerifyQueue(); err != nil {
			p.t.Fatalf("VerifyQueue: %v", err)
		}
	}
}

func (p *schedPair) finish() {
	for p.stepBoth() {
	}
	if err := p.eng.VerifyQueue(); err != nil {
		p.t.Fatalf("VerifyQueue after drain: %v", err)
	}
	if len(p.elog) != len(p.mlog) {
		p.t.Fatalf("dispatch counts diverge: engine=%d model=%d", len(p.elog), len(p.mlog))
	}
	for i := range p.elog {
		if p.elog[i] != p.mlog[i] {
			p.t.Fatalf("dispatch order diverges at %d: engine fired %d, model fired %d",
				i, p.elog[i], p.mlog[i])
		}
	}
}

func runSchedBytes(t *testing.T, data []byte) *schedPair {
	p := &schedPair{t: t}
	for i := 0; i+1 < len(data); i += 2 {
		p.step(data[i], data[i+1])
	}
	p.finish()
	return p
}

// FuzzScheduler is the byte-driven differential harness: any operation
// sequence the fuzzer invents must dispatch from the engine exactly as the
// sorted-slice model does. The committed corpus holds the input that
// caught a bounded-advance bug of an earlier engine (a peek that parked its
// search cursor past a later-scheduled event).
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 3, 0, 4, 50})                         // ties, step, advance
	f.Add([]byte{0, 0, 1, 7, 2, 0, 2, 1, 4, 255})                    // cancels incl. repeats
	f.Add([]byte{0, 7, 0, 14, 0, 21, 0, 28, 3, 0, 3, 0, 3, 0, 3, 0}) // far jumps then drain
	f.Add([]byte{1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5,
		1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5}) // a population several heap levels deep
	for _, c := range callbackSeeds {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("cap the per-input work")
		}
		runSchedBytes(t, data)
	})
}

// callbackSeeds are FuzzScheduler seeds, one for each callback operation:
// tags count up from 0 in schedule order, and the event scheduled soonest
// (1 s on) fires first with the root open.
var callbackSeeds = []struct {
	op   int
	data []byte
}{
	{cbFill, []byte{0, 2, 3, 0}},                               // tag 0: one child fills the root
	{cbAppend, []byte{0, 22, 0, 2, 3, 0}},                      // tag 1: one child fills, the other appends
	{cbPeek, []byte{0, 22, 0, 23, 0, 2, 3, 0}},                 // tag 2: a peek settles the root first
	{cbCancel, []byte{0, 22, 0, 23, 0, 24, 0, 2, 3, 0, 4, 30}}, // tag 3: cancels tag 0
}

// TestSchedulerSeedsReachEveryCallback: each callback seed runs its
// operation in the differential harness.
func TestSchedulerSeedsReachEveryCallback(t *testing.T) {
	for _, c := range callbackSeeds {
		if p := runSchedBytes(t, c.data); p.cases[c.op] == 0 {
			t.Errorf("seed %v never ran callback operation %d (ran %v)", c.data, c.op, p.cases)
		}
	}
}

// TestRandomOperationsScheduler replays a fixed pseudo-random operation
// stream through the differential harness so the property is exercised on
// every plain `go test` run, fuzzing or not. Large enough for a heap
// several levels deep to grow and drain more than once.
func TestRandomOperationsScheduler(t *testing.T) {
	state := uint64(0x9E3779B97F4A7C15)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state >> 56)
	}
	data := make([]byte, 2*6000)
	for i := range data {
		data[i] = next()
	}
	runSchedBytes(t, data)
}
