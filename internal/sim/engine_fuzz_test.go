package sim

import (
	"cmp"
	"slices"
	"testing"
)

// schedPair drives the engine and a sorted-slice model of it through
// identical byte-encoded operation sequences — schedules, cancels, steps,
// bounded advances, nested schedules from inside callbacks — and requires
// the dispatch sequences to be identical. The model is the specification:
// the pending events kept sorted by (time, seq), each schedule drawing the
// next sequence number, each step taking the head.
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
}

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
	p.handles = append(p.handles, p.eng.Schedule(at, func() {
		p.elog = append(p.elog, tag)
		if tag%5 == 0 {
			ct := childBase + tag
			p.eng.ScheduleAfter(1.5, func() { p.elog = append(p.elog, ct) })
		}
	}))
	p.mseqs = append(p.mseqs, p.modelSchedule(at, tag))
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

// modelStep fires the model's head, spawning its child like the engine's
// callback does.
func (p *schedPair) modelStep() bool {
	if len(p.model) == 0 {
		return false
	}
	ev := p.model[0]
	p.model = p.model[1:]
	p.mnow = ev.at
	p.mfired++
	p.mlog = append(p.mlog, ev.tag)
	if ev.tag < childBase && ev.tag%5 == 0 {
		p.modelSchedule(p.mnow+1.5, childBase+ev.tag)
	}
	return true
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
		if se, sm := p.eng.Step(), p.modelStep(); se != sm {
			p.t.Fatalf("Step: engine=%v model=%v", se, sm)
		}
	case 4: // bounded advance: step every event at or before to
		to := p.eng.Now() + float64(arg)
		for at, _, ok := p.eng.PeekNextEventTime(); ok && at <= to; at, _, ok = p.eng.PeekNextEventTime() {
			p.eng.Step()
		}
		for len(p.model) > 0 && p.model[0].at <= to {
			p.modelStep()
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
	if at, seq, ok := p.eng.PeekNextEventTime(); ok != (len(p.model) > 0) ||
		ok && (at != p.model[0].at || seq != p.model[0].seq) {
		p.t.Fatalf("PeekNextEventTime: engine=(%g, %d, %v), model head %v", at, seq, ok, p.model)
	}
	if p.ops%16 == 0 {
		if err := p.eng.VerifyQueue(); err != nil {
			p.t.Fatalf("VerifyQueue: %v", err)
		}
	}
}

func (p *schedPair) finish() {
	p.eng.Run()
	for p.modelStep() {
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

func runSchedBytes(t *testing.T, data []byte) {
	p := &schedPair{t: t}
	for i := 0; i+1 < len(data); i += 2 {
		p.step(data[i], data[i+1])
	}
	p.finish()
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("cap the per-input work")
		}
		runSchedBytes(t, data)
	})
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
