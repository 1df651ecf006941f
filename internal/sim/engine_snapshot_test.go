package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// fired records a dispatch log entry as (time, tag) so two engines'
// dispatch orders can be compared exactly.
type fired struct {
	at  float64
	tag Tag
}

// chainHandle is the engine tests' event handler: it logs each dispatch
// and, like a real handler, schedules follow-ups for some events,
// exercising post-restore scheduling with resumed seq numbering.
func chainHandle(e *Engine, log *[]fired) func(Tag) {
	return func(tag Tag) {
		*log = append(*log, fired{e.Now(), tag})
		if tag.Kind == 2 && tag.Arg < 40 {
			e.ScheduleTag(e.Now()+1.5, Tag{Kind: 2, Arg: tag.Arg + 100})
		}
	}
}

// TestEngineSnapshotRestoreDispatchOrder is the core engine-level resume
// property: snapshot mid-run, restore into a fresh engine, and the
// remaining dispatch sequence — including same-time FIFO ties and events
// scheduled by the handler after the restore — must be identical.
func TestEngineSnapshotRestoreDispatchOrder(t *testing.T) {
	rng := stats.NewRand(981)
	build := func() (*Engine, *[]fired) {
		e := &Engine{}
		log := &[]fired{}
		e.handle = chainHandle(e, log)
		for i := 0; i < 300; i++ {
			at := rng.Float64() * 100
			if i%7 == 0 {
				at = float64(i % 5) // force exact-tie timestamps
			}
			e.ScheduleTag(at, Tag{Kind: uint8(1 + i%3), Arg: int64(i)})
		}
		return e, log
	}

	// Reference: run to completion uninterrupted.
	rng = stats.NewRand(981)
	ref, refLog := build()
	ref.Run()

	// Interrupted: step partway, snapshot, restore, finish.
	rng = stats.NewRand(981)
	e, log := build()
	for i := 0; i < 120; i++ {
		if !e.Step() {
			t.Fatal("queue drained early")
		}
	}
	st, err := e.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	e2 := &Engine{}
	log2 := &[]fired{}
	*log2 = append(*log2, *log...)
	e2.handle = chainHandle(e2, log2)
	handles, err := e2.RestoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != len(st.Events) {
		t.Fatalf("got %d handles for %d events", len(handles), len(st.Events))
	}
	for i, h := range handles {
		if !live(h) || e2.heap[h.rec.pos].at != st.Events[i].At {
			t.Fatalf("handle %d not live at snapshot time", i)
		}
	}
	if e2.Now() != e.Now() || e2.Dispatched() != e.Dispatched() || e2.Pending() != e.Pending() {
		t.Fatalf("restored clock/counters differ: now %g/%g dispatched %d/%d pending %d/%d",
			e2.Now(), e.Now(), e2.Dispatched(), e.Dispatched(), e2.Pending(), e.Pending())
	}
	e2.Run()

	if !reflect.DeepEqual(*refLog, *log2) {
		if len(*refLog) != len(*log2) {
			t.Fatalf("dispatch counts differ: %d vs %d", len(*refLog), len(*log2))
		}
		for i := range *refLog {
			if (*refLog)[i] != (*log2)[i] {
				t.Fatalf("dispatch %d differs: %+v vs %+v", i, (*refLog)[i], (*log2)[i])
			}
		}
	}
	if e2.Dispatched() != ref.Dispatched() {
		t.Fatalf("dispatched %d != reference %d", e2.Dispatched(), ref.Dispatched())
	}
}

// TestSnapshotEventsRejectsUntagged: a plain Schedule event is a callback,
// which cannot be written, so the snapshot must fail loudly rather than
// silently drop it.
func TestSnapshotEventsRejectsUntagged(t *testing.T) {
	e := &Engine{}
	e.Schedule(5, func() {})
	if _, err := e.SnapshotEvents(); err == nil {
		t.Fatal("snapshot of an untagged event succeeded")
	}
}

// TestRestoreStateValidation exercises the rejection paths: used engine,
// out-of-range and duplicate seqs, pre-clock events, zero tags.
func TestRestoreStateValidation(t *testing.T) {
	ok := QueuedEvent{At: 10, Seq: 3, Tag: Tag{Kind: 1}}
	cases := []struct {
		name string
		st   EngineState
	}{
		{"seq zero", EngineState{Now: 1, Seq: 5, Events: []QueuedEvent{{At: 10, Seq: 0, Tag: Tag{Kind: 1}}}}},
		{"seq beyond counter", EngineState{Now: 1, Seq: 2, Events: []QueuedEvent{ok}}},
		{"duplicate seq", EngineState{Now: 1, Seq: 5, Events: []QueuedEvent{ok, ok}}},
		{"event before clock", EngineState{Now: 50, Seq: 5, Events: []QueuedEvent{ok}}},
		{"zero tag", EngineState{Now: 1, Seq: 5, Events: []QueuedEvent{{At: 10, Seq: 3}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &Engine{handle: func(Tag) {}}
			if _, err := e.RestoreState(tc.st); err == nil {
				t.Fatal("invalid state accepted")
			}
		})
	}

	// Two different events under one seq are refused by name.
	t.Run("duplicate seq on two events", func(t *testing.T) {
		sh := &Engine{handle: func(Tag) {}}
		evs := []QueuedEvent{
			{At: 10, Seq: 3, Tag: Tag{Kind: evDeparture, Arg: 1}},
			{At: 11, Seq: 3, Tag: Tag{Kind: evDeparture, Arg: 2}},
		}
		if _, err := sh.RestoreState(EngineState{Now: 1, Seq: 5, Events: evs}); err == nil ||
			!strings.Contains(err.Error(), "duplicate event seq 3") {
			t.Fatalf("restore error = %v, want duplicate event seq 3", err)
		}
	})

	t.Run("used engine", func(t *testing.T) {
		e := &Engine{handle: func(Tag) {}}
		e.Schedule(1, func() {})
		if _, err := e.RestoreState(EngineState{}); err == nil {
			t.Fatal("restore into a used engine accepted")
		}
	})
}

// TestRestoredEventCancel: handles returned by RestoreState must be
// cancellable exactly like freshly scheduled ones — the simulation layer
// re-arms its lifeEvent/failure maps with them.
func TestRestoredEventCancel(t *testing.T) {
	e := &Engine{handle: func(Tag) {}}
	e.ScheduleTag(5, Tag{Kind: 1, Arg: 1})
	e.ScheduleTag(7, Tag{Kind: 1, Arg: 2})
	st, err := e.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	e2 := &Engine{handle: func(Tag) { ran++ }}
	handles, err := e2.RestoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !handles[0].Cancel() {
		t.Fatal("restored handle did not cancel")
	}
	if handles[0].Cancel() {
		t.Fatal("double cancel reported success")
	}
	e2.Run()
	if ran != 1 {
		t.Fatalf("fired %d events, want 1 (one cancelled)", ran)
	}
	if err := e2.VerifyQueue(); err != nil {
		t.Fatal(err)
	}
}
