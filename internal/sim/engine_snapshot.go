package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Tag is a tagged event's whole identity: a small enum of event kinds plus
// one integer argument (a VM or PM identifier, or zero). Scheduling,
// firing, snapshotting and restoring all read this one value: the queue
// stores it, the engine's handle receives it when the event fires, and a
// checkpoint writes it. Because dispatch order is total in (at, seq),
// re-queueing the saved tags with their original sequence numbers
// reproduces the exact dispatch order of the original run.
//
// Kind 0 is reserved for "untagged" (plain Schedule); the event kinds
// themselves are defined by the simulation layer (cloudsim.go), not the
// engine.
type Tag struct {
	Kind uint8 `json:"k"`
	Arg  int64 `json:"a,omitempty"`
}

// QueuedEvent is one serialized event: the full ordering key plus the
// event's tag.
type QueuedEvent struct {
	At  float64 `json:"at"`
	Seq uint64  `json:"seq"`
	Tag Tag     `json:"tag"`
}

// EngineState is the serializable core of the engine. The heap's layout
// is absent: dispatch order depends only on (at, seq), so a restored
// engine may order its slots any way the heap allows.
type EngineState struct {
	Now        float64       `json:"now"`
	Seq        uint64        `json:"seq"`
	Dispatched uint64        `json:"dispatched"`
	Events     []QueuedEvent `json:"events"`
}

// SnapshotEvents settles the root and returns every live queued event
// sorted by (At, Seq). It fails if any live event is untagged — a callback
// cannot be written, so a checkpoint containing one would not be
// restorable.
func (e *Engine) SnapshotEvents() ([]QueuedEvent, error) {
	e.settle()
	evs := make([]QueuedEvent, 0, len(e.heap))
	for _, s := range e.heap {
		tag := e.record(s.idx).tag
		if tag.Kind == 0 {
			return nil, fmt.Errorf("sim: untagged event at t=%g seq=%d cannot be snapshotted", s.at, s.seq)
		}
		evs = append(evs, QueuedEvent{At: s.at, Seq: s.seq, Tag: tag})
	}
	slices.SortFunc(evs, compareQueued)
	return evs, nil
}

// compareQueued orders queued events by (At, Seq), the dispatch order.
func compareQueued(a, b QueuedEvent) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// SnapshotState captures the engine core for a checkpoint.
func (e *Engine) SnapshotState() (EngineState, error) {
	evs, err := e.SnapshotEvents()
	if err != nil {
		return EngineState{}, err
	}
	return EngineState{Now: e.now, Seq: e.seq, Dispatched: e.dispatched, Events: evs}, nil
}

// RestoreState loads a snapshot into a fresh engine: each event is
// re-queued with its tag, to fire through the engine's handle like any
// ScheduleTag event. The returned Event handles are aligned index-for-index
// with st.Events so the caller can re-arm its cancellation maps.
//
// Each event keeps its original sequence number, and the engine's seq
// counter resumes from the snapshot, so the (at, seq) total order — and
// therefore every future dispatch decision — is bit-identical to the
// run that wrote the snapshot.
func (e *Engine) RestoreState(st EngineState) ([]Event, error) {
	if e.seq != 0 || len(e.heap) != 0 || e.dispatched != 0 {
		return nil, fmt.Errorf("sim: RestoreState on a used engine (seq=%d, pending=%d)", e.seq, len(e.heap))
	}
	seen := make(map[uint64]struct{}, len(st.Events))
	for i, ev := range st.Events {
		if ev.Seq == 0 || ev.Seq > st.Seq {
			return nil, fmt.Errorf("sim: event %d has seq %d outside (0, %d]", i, ev.Seq, st.Seq)
		}
		if _, dup := seen[ev.Seq]; dup {
			return nil, fmt.Errorf("sim: duplicate event seq %d", ev.Seq)
		}
		seen[ev.Seq] = struct{}{}
		if !(ev.At >= st.Now) { // also rejects NaN
			return nil, fmt.Errorf("sim: event %d at t=%g is before snapshot clock %g", i, ev.At, st.Now)
		}
		if ev.Tag.Kind == 0 {
			return nil, fmt.Errorf("sim: event %d has zero tag kind", i)
		}
	}
	e.now = st.Now
	e.seq = st.Seq
	e.dispatched = st.Dispatched
	handles := make([]Event, len(st.Events))
	for i, ev := range st.Events {
		handles[i] = e.schedule(ev.At, ev.Seq, ev.Tag, nil)
	}
	return handles, nil
}
