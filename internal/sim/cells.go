package sim

import (
	"fmt"
	"slices"
)

// This file is the multi-cell engine: Config.Cells > 1 partitions the
// fleet into C cells, each owning its own event heap, and Step advances
// whichever cell holds the globally next (at, seq) event. The per-cell
// engines share ONE sequence counter, so the merged order is not merely
// "a" deterministic order — it is the exact order the monolithic engine
// produces for the same run, which is what the cell-differential golden
// battery asserts byte-for-byte.
//
// Events are routed to cells by their snapshot tag: VM-lifecycle events
// follow the VM's cell ((id-1) mod C), PM-lifecycle events follow the
// PM's contiguous ID range, and the control tick — a global concern —
// lives on cell 0. Cross-cell work (the global spare budget, failure
// injection's single RNG stream, consolidation moves that cross a cell
// boundary) happens inside handlers fired from that one step, never by
// one cell reaching into another's queue.
//
// A cells run differs from the monolith in nothing it writes, its
// checkpoints included — that is its contract. The engine is kept only as
// the seam bench/ drives through Config.Cells; ROADMAP item 2 deletes it.

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
	part, err := newPartition(cells, fleet)
	if err != nil {
		panic(err) // unreachable: setDefaults validated
	}
	sh := &shardedEngine{part: part, cells: make([]*Engine, cells)}
	for i := range sh.cells {
		sh.cells[i] = &Engine{handle: handle, seqShared: &sh.seqCtr}
	}
	return sh
}

// partition maps fleet entities to cells. PMs get balanced contiguous
// ID ranges (cell 0 owns the lowest IDs) so a cell is a physically
// meaningful slice of the datacenter; VMs are struck round-robin by ID
// so arrival load spreads evenly regardless of lifetime skew. Both maps
// are pure functions of (cells, fleet), so a checkpoint records neither:
// a restore re-derives every event's cell from its tag under its own
// partition.
type partition struct {
	cells int // >= 1
	fleet int // number of PMs; PM IDs are dense 0..fleet-1
}

// newPartition validates and builds a partition. cells must be in
// [1, fleet]: an empty cell would own no PMs and could never host a
// placement, so it is rejected rather than silently idle.
func newPartition(cells, fleet int) (partition, error) {
	switch {
	case fleet < 1:
		return partition{}, fmt.Errorf("sim: fleet size %d < 1", fleet)
	case cells < 1:
		return partition{}, fmt.Errorf("sim: cell count %d < 1", cells)
	case cells > fleet:
		return partition{}, fmt.Errorf("sim: %d cells > %d PMs (every cell must own at least one PM)", cells, fleet)
	}
	return partition{cells: cells, fleet: fleet}, nil
}

// pmCell returns the cell owning PM id. The first fleet%cells cells own
// one extra PM, so range sizes differ by at most one.
func (p partition) pmCell(id int) int {
	if id < 0 || id >= p.fleet {
		panic(fmt.Sprintf("sim: PM id %d outside fleet [0,%d)", id, p.fleet))
	}
	base, rem := p.fleet/p.cells, p.fleet%p.cells
	if wide := rem * (base + 1); id >= wide {
		return rem + (id-wide)/base
	}
	return id / (base + 1)
}

// vmCell returns the cell owning VM id. VM IDs are 1-based (the
// simulator assigns them in arrival order), so VM 1 lands on cell 0.
func (p partition) vmCell(id int64) int {
	if id < 1 {
		panic(fmt.Sprintf("sim: VM id %d < 1", id))
	}
	return int((id - 1) % int64(p.cells))
}

// shardedEngine is C per-cell event heaps behind one scheduler
// facade. The global clock, dispatch count, and sequence counter live
// here; each cell engine's local clock lags the global one (it only
// advances when that cell fires) and draws its sequence numbers from
// seqCtr.
type shardedEngine struct {
	part  partition
	cells []*Engine

	now        float64
	seqCtr     uint64
	dispatched uint64

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
		return sh.part.vmCell(tag.Arg)
	case evBootDone, evShutdownDone, evFailure, evRepaired:
		return sh.part.pmCell(int(tag.Arg))
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
// shared clock to the minimum (at, seq), and step that cell. Seqs are
// unique across cells, so the minimum is unique; were one seq live in two
// cells (VerifyQueue names that), the strict comparison would still pick
// the lowest cell.
func (sh *shardedEngine) Step() bool {
	next := -1
	var at float64
	var seq uint64
	for i, e := range sh.cells {
		if a, s, ok := e.PeekNextEventTime(); ok && (next < 0 || a < at || (a == at && s < seq)) {
			next, at, seq = i, a, s
		}
	}
	if next < 0 {
		return false
	}
	sh.now = at
	sh.dispatched++
	sh.cells[next].Step()
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
// sorted list under the global clock and counters: exactly what the
// monolith snapshots at the same event boundary, which is what lets a
// C=8 checkpoint restore into any other cell count — RestoreState
// re-derives each event's cell from its tag under the TARGET partition.
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

// RestoreState loads an engine snapshot: events are partitioned by
// routing tag under THIS engine's cell count, re-armed with their
// original sequence numbers, and the returned handles are index-aligned
// with st.Events exactly like the monolith's RestoreState.
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
		hs, err := e.RestoreState(EngineState{Now: st.Now, Seq: st.Seq, Events: perEv[c]})
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
	return handles, nil
}
