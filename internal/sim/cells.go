package sim

import (
	"fmt"
	"slices"

	"repro/internal/cell"
)

// This file is the multi-cell engine: Config.Cells > 1 partitions the
// fleet into C cells, each owning its own event heap, and a
// shared-clock orchestrator (internal/cell) advances them in global
// (at, seq) order. The per-cell engines share ONE sequence counter, so
// the merged order is not merely "a" deterministic order — it is the
// exact order the monolithic engine produces for the same run, which is
// what the cell-differential golden battery asserts byte-for-byte.
//
// Events are routed to cells by their snapshot tag: VM-lifecycle events
// follow the VM's cell ((id-1) mod C), PM-lifecycle events follow the
// PM's contiguous ID range, and the control tick — a global concern —
// lives on cell 0. Cross-cell work (the global spare budget, failure
// injection's single RNG stream, consolidation moves that cross a cell
// boundary) happens inside handlers fired from the orchestrator step,
// never by one cell reaching into another's queue.
//
// A cells run differs from the monolith in nothing it outputs — that is its
// contract. The engine is kept only as the seam bench/ drives through
// Config.Cells; ROADMAP item 2 deletes it.

// scheduler is the engine seam the simulation layer drives. Both the
// monolithic *Engine and the sharded multi-cell engine satisfy it; the
// simulator neither knows nor cares which it got, and with Cells <= 1
// it gets a plain *Engine — the exact pre-cell code path.
type scheduler interface {
	Now() float64
	Dispatched() uint64
	Pending() int
	Step() bool
	ScheduleTag(at float64, tag Tag) Event
	scheduleSeq(at float64, seq uint64, tag Tag) Event
	reserve(n int) uint64
	VerifyQueue() error
	SnapshotState() (EngineState, error)
	RestoreState(st EngineState) ([]Event, error)
}

// newScheduler builds the engine for a run: monolithic for cells <= 1,
// sharded otherwise. fleet is the PM count (cells must already be
// validated against it by Config.setDefaults); handle fires every event.
func newScheduler(cells, fleet int, handle func(Tag)) scheduler {
	if cells <= 1 {
		return &Engine{handle: handle}
	}
	part, err := cell.NewPartition(cells, fleet)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err)) // unreachable: setDefaults validated
	}
	sh := &shardedEngine{part: part}
	sh.cells = make([]*Engine, cells)
	queues := make([]cell.Queue, cells)
	for i := range sh.cells {
		e := &Engine{handle: handle}
		e.UseSharedSeq(&sh.seqCtr)
		sh.cells[i] = e
		queues[i] = e
	}
	sh.orch = cell.NewOrchestrator(queues)
	return sh
}

// The Engine methods below exist for the sharded engine alone: a shared
// sequence counter, and the cell.Queue view its orchestrator merges.

// UseSharedSeq attaches a shared sequence counter, before the first
// Schedule: re-seating it mid-run could give two events one number.
func (e *Engine) UseSharedSeq(ctr *uint64) {
	if e.seq != 0 || len(e.heap) != 0 || e.dispatched != 0 {
		panic("sim: UseSharedSeq on a used engine")
	}
	e.seqShared = ctr
}

// HasPendingEvents reports whether any live event is queued. With
// PeekNextEventTime and ProcessNextEvent it is the cell.Queue the
// multi-cell orchestrator merges.
func (e *Engine) HasPendingEvents() bool { return len(e.heap) > 0 }

// PeekNextEventTime returns the next event's (at, seq) key; ok is false
// when the queue is empty.
func (e *Engine) PeekNextEventTime() (at float64, seq uint64, ok bool) {
	if len(e.heap) == 0 {
		return 0, 0, false
	}
	return e.heap[0].at, e.heap[0].seq, true
}

// ProcessNextEvent is Step under the cell.Queue interface's name.
func (e *Engine) ProcessNextEvent() bool { return e.Step() }

// shardedEngine is C per-cell event heaps behind one scheduler
// facade. The global clock, dispatch count, and sequence counter live
// here; each cell engine's local clock lags the global one (it only
// advances when that cell fires) and its local seq counter is unused.
type shardedEngine struct {
	part  cell.Partition
	cells []*Engine
	orch  *cell.Orchestrator

	now        float64
	seqCtr     uint64
	dispatched uint64

	// restoreDisp carries per-cell dispatch counts from a same-C
	// checkpoint into RestoreState (nil on a cross-C re-shard restore,
	// where per-cell attribution restarts at zero).
	restoreDisp []uint64

	// verifySeen is VerifyQueue's duplicate-sequence scratch, kept on the
	// engine so the per-event audit does not allocate a fresh map for
	// every check (the map grows to the high-water pending count once and
	// is cleared in place thereafter).
	verifySeen map[uint64]struct{}
}

// route maps an event tag to its owning cell. VM events follow the VM,
// PM events follow the PM, and the control tick anchors on cell 0.
func (sh *shardedEngine) route(tag Tag) int {
	switch tag.Kind {
	case evArrival, evCreationDone, evDeparture, evMigCutover:
		return sh.part.VMCell(tag.Arg)
	case evBootDone, evShutdownDone, evFailure, evRepaired:
		return sh.part.PMCell(int(tag.Arg))
	default: // evControlTick and anything untagged-adjacent
		return 0
	}
}

func (sh *shardedEngine) Now() float64 { return sh.now }

func (sh *shardedEngine) Dispatched() uint64 { return sh.dispatched }

func (sh *shardedEngine) Pending() int {
	n := 0
	for _, e := range sh.cells {
		n += e.Pending()
	}
	return n
}

// ScheduleTag routes the event to its cell's queue. The past-check runs
// against the GLOBAL clock: a cell's local clock lags it, so the
// per-cell engine alone could not reject an event that is in the global
// past but that cell's local future.
func (sh *shardedEngine) ScheduleTag(at float64, tag Tag) Event {
	if at < sh.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", at, sh.now))
	}
	return sh.cells[sh.route(tag)].ScheduleTag(at, tag)
}

// scheduleSeq routes a reserved-seq event to its cell, checked against
// the global clock like ScheduleTag.
func (sh *shardedEngine) scheduleSeq(at float64, seq uint64, tag Tag) Event {
	if at < sh.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", at, sh.now))
	}
	return sh.cells[sh.route(tag)].scheduleSeq(at, seq, tag)
}

// reserve takes a block of n sequence numbers off the shared counter.
func (sh *shardedEngine) reserve(n int) uint64 {
	base := sh.seqCtr
	sh.seqCtr += uint64(n)
	return base
}

// Step fires the globally next event: peek every cell, advance the
// shared clock to the minimum (at, seq), and dispatch it inside that
// cell.
func (sh *shardedEngine) Step() bool {
	at, _, ci, ok := sh.orch.Peek()
	if !ok {
		return false
	}
	sh.now = at
	sh.dispatched++
	if !sh.cells[ci].Step() {
		panic(fmt.Sprintf("sim: cell %d peeked an event but had none to fire", ci))
	}
	return true
}

// VerifyQueue runs every cell's structural check, then the cross-cell
// invariants: each resident event routes to the cell holding it, no
// sequence number appears twice, none exceeds the shared counter, and
// nothing is queued before the global clock. O(pending); used by the
// auditor's per-event queue check like the monolith's VerifyQueue.
func (sh *shardedEngine) VerifyQueue() error {
	if sh.verifySeen == nil {
		sh.verifySeen = make(map[uint64]struct{})
	}
	seen := sh.verifySeen
	clear(seen)
	for ci, e := range sh.cells {
		if err := e.VerifyQueue(); err != nil {
			return fmt.Errorf("sim: cell %d: %w", ci, err)
		}
		for _, s := range e.heap {
			if want := sh.route(s.rec.tag); want != ci {
				return fmt.Errorf("sim: event (kind %d, arg %d) resident in cell %d, routes to %d",
					s.rec.tag.Kind, s.rec.tag.Arg, ci, want)
			}
			if s.seq > sh.seqCtr {
				return fmt.Errorf("sim: cell %d holds seq %d beyond shared counter %d", ci, s.seq, sh.seqCtr)
			}
			if _, dup := seen[s.seq]; dup {
				return fmt.Errorf("sim: seq %d is live in two cells", s.seq)
			}
			seen[s.seq] = struct{}{}
			if s.at < sh.now {
				return fmt.Errorf("sim: cell %d holds event at t=%g before global now %g", ci, s.at, sh.now)
			}
		}
	}
	return nil
}

// SnapshotState merges every cell's pending events into one (At, Seq)-
// sorted list under the global clock and counters. The result is
// cell-agnostic — identical to what the monolith would snapshot at the
// same event boundary — which is what lets a C=8 checkpoint restore
// into any other cell count: RestoreState re-derives each event's cell
// from its tag under the TARGET partition.
func (sh *shardedEngine) SnapshotState() (EngineState, error) {
	var evs []QueuedEvent
	for ci, e := range sh.cells {
		ce, err := e.SnapshotEvents()
		if err != nil {
			return EngineState{}, fmt.Errorf("sim: cell %d: %w", ci, err)
		}
		evs = append(evs, ce...)
	}
	slices.SortFunc(evs, compareQueued)
	return EngineState{Now: sh.now, Seq: sh.seqCtr, Dispatched: sh.dispatched, Events: evs}, nil
}

// cellDispatched returns each cell's dispatch count (the snapshot's
// per-cell section).
func (sh *shardedEngine) cellDispatched() []uint64 {
	out := make([]uint64, len(sh.cells))
	for i, e := range sh.cells {
		out[i] = e.Dispatched()
	}
	return out
}

// setRestoreDispatched stages per-cell dispatch counts for the next
// RestoreState. They only apply when the snapshot's cell count matches
// this engine's — the documented re-shard path (any other C, including
// a monolith snapshot) restores per-cell attribution from zero while
// the global count is preserved.
func (sh *shardedEngine) setRestoreDispatched(snapshotCells int, disp []uint64) {
	if snapshotCells == sh.part.Cells && len(disp) == sh.part.Cells {
		sh.restoreDisp = disp
	} else {
		sh.restoreDisp = nil
	}
}

// RestoreState loads a (cell-agnostic) engine snapshot: events are
// partitioned by routing tag under THIS engine's cell count, re-armed
// with their original sequence numbers, and the returned handles are
// index-aligned with st.Events exactly like the monolith's RestoreState.
func (sh *shardedEngine) RestoreState(st EngineState) ([]Event, error) {
	if sh.seqCtr != 0 || sh.dispatched != 0 || sh.Pending() != 0 {
		return nil, fmt.Errorf("sim: RestoreState on a used sharded engine (seq=%d, pending=%d)", sh.seqCtr, sh.Pending())
	}
	// Each cell checks its own events; a seq two cells hold is caught here.
	seen := make(map[uint64]struct{}, len(st.Events))
	perEv := make([][]QueuedEvent, len(sh.cells))
	perIdx := make([][]int, len(sh.cells))
	for i, ev := range st.Events {
		if _, dup := seen[ev.Seq]; dup {
			return nil, fmt.Errorf("sim: duplicate event seq %d", ev.Seq)
		}
		seen[ev.Seq] = struct{}{}
		c := sh.route(ev.Tag)
		perEv[c] = append(perEv[c], ev)
		perIdx[c] = append(perIdx[c], i)
	}
	handles := make([]Event, len(st.Events))
	for c, e := range sh.cells {
		var disp uint64
		if sh.restoreDisp != nil {
			disp = sh.restoreDisp[c]
		}
		hs, err := e.RestoreState(EngineState{Now: st.Now, Seq: st.Seq, Dispatched: disp, Events: perEv[c]})
		if err != nil {
			return nil, fmt.Errorf("sim: cell %d: %w", c, err)
		}
		for j, h := range hs {
			handles[perIdx[c][j]] = h
		}
	}
	sh.now = st.Now
	sh.seqCtr = st.Seq
	sh.dispatched = st.Dispatched
	sh.restoreDisp = nil
	return handles, nil
}
