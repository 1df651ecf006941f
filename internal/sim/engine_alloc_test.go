package sim

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/policy"
)

// eventLoopAllocCeiling is the asserted allocation budget for the
// steady-state event loop (one Schedule + one Step with a stable
// resident population): the freelist recycles records and the heap's
// array has grown to the population, so the loop allocates nothing. The ceiling is 2
// (not 0) to leave headroom for incidental runtime effects.
const eventLoopAllocCeiling = 2

// steadyStateAllocs warms e to its operating population and returns the
// allocations of one Schedule plus one step in the steady state.
func steadyStateAllocs(e *Engine, step func()) float64 {
	nop := func() {}
	// Warm up: grow the freelist and the heap past the operating
	// population, then drain half.
	for i := 0; i < 4096; i++ {
		e.Schedule(float64(i)*0.1, nop)
	}
	for i := 0; i < 2048; i++ {
		e.Step()
	}
	rng := uint64(0x243F6A8885A308D3)
	return testing.AllocsPerRun(10000, func() {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		e.Schedule(e.Now()+float64(rng%512)*0.25, nop)
		step()
	})
}

func TestEventLoopAllocBudget(t *testing.T) {
	var e Engine
	if allocs := steadyStateAllocs(&e, func() { e.Step() }); allocs > eventLoopAllocCeiling {
		t.Errorf("steady-state event loop allocates %.1f allocs/op, budget %d", allocs, eventLoopAllocCeiling)
	}
}

// TestTaggedEventAllocs: a tagged event is data, not a closure, so once the
// freelist and the heap are warm one ScheduleTag plus the Step that fires
// it through the handle allocates nothing at all.
func TestTaggedEventAllocs(t *testing.T) {
	fired := 0
	e := &Engine{handle: func(Tag) { fired++ }}
	for i := 0; i < 4096; i++ {
		e.ScheduleTag(float64(i)*0.1, Tag{Kind: evDeparture, Arg: int64(i + 1)})
	}
	for i := 0; i < 2048; i++ {
		e.Step()
	}
	rng := uint64(0x243F6A8885A308D3)
	allocs := testing.AllocsPerRun(10000, func() {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		e.ScheduleTag(e.Now()+float64(rng%512)*0.25, Tag{Kind: evDeparture, Arg: int64(rng % 4096)})
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("ScheduleTag + Step allocates %.1f allocs/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("the handle never fired")
	}
}

// TestObservedStepAllocBudget: timing every dispatched event under an
// observer (the event_dispatch span around eng.Step, int64 monotonic
// nanoseconds from Begin to End) costs the simulator's step loop no
// allocation — no closure per event.
//
// The rest of an observed run's write path is budgeted where it lives:
//   - obs.Tracer.Emit, a record of I, F, S, B and C fields: 0 allocations
//     (internal/obs TestEmitAllocBudget, emitAllocCeiling).
//   - a recorded decision_moves pass: no allocation per record beyond the
//     unrecorded pass, only core's alternative list per move
//     (internal/policy TestRecordedPassAllocBudget,
//     recordedPassAllocsPerRecord).
//   - core.ArrivalShortlist at k = 3: at most 1 allocation, its result
//     (internal/core TestArrivalShortlistAllocBudget,
//     arrivalShortlistAllocCeiling).
func TestObservedStepAllocBudget(t *testing.T) {
	stepAllocs := func(o *obs.Observer) (float64, *simulator) {
		e := &Engine{}
		s := &simulator{cfg: &Config{}, eng: e, phDispatch: o.Phase("event_dispatch")}
		return steadyStateAllocs(e, func() {
			if ok, err := s.stepOnce(); !ok || err != nil {
				t.Fatalf("stepOnce: ok=%v err=%v", ok, err)
			}
		}), s
	}
	plain, _ := stepAllocs(nil)
	observed, s := stepAllocs(obs.New())
	if s.phDispatch.Calls() == 0 {
		t.Fatal("observed loop never timed a dispatch")
	}
	if observed > plain {
		t.Errorf("observed step loop allocates %.1f allocs/op, unobserved %.1f", observed, plain)
	}
}

func TestCancelAllocBudget(t *testing.T) {
	var e Engine
	nop := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(float64(i), nop)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		ev := e.Schedule(e.Now()+100, nop)
		ev.Cancel()
	})
	if allocs > eventLoopAllocCeiling {
		t.Errorf("schedule+cancel allocates %.1f allocs/op, budget %d", allocs, eventLoopAllocCeiling)
	}
}

// TestEngineMillionEventSmoke is the long-run liveness gate: a 1M-event
// churn (every fire schedules a successor) over a 10k-resident
// population, with monotone-clock and queue-structure invariants checked
// along the way. It runs in well under a second.
func TestEngineMillionEventSmoke(t *testing.T) {
	const (
		resident = 10_000
		total    = 1_000_000
	)
	var e Engine
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%1024) * 0.125
	}
	fired := 0
	var reschedule func()
	reschedule = func() {
		fired++
		if fired+e.Pending() < total {
			e.ScheduleAfter(next(), reschedule)
		}
	}
	for i := 0; i < resident; i++ {
		e.Schedule(next(), reschedule)
	}
	last := 0.0
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("clock moved backward: %g after %g", e.Now(), last)
		}
		last = e.Now()
		if fired%100_000 == 0 {
			if err := e.VerifyQueue(); err != nil {
				t.Fatalf("VerifyQueue at %d events: %v", fired, err)
			}
		}
	}
	if fired != total {
		t.Fatalf("dispatched %d events, want %d", fired, total)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
	if err := e.VerifyQueue(); err != nil {
		t.Fatalf("VerifyQueue after drain: %v", err)
	}
}

// TestFirstFitRunAllocBudget: a run allocates per chunk of requests, not
// per request or event. static-fleet-1k's first input (1,000 Table II PMs,
// the seed-1 week at 10x, first-fit, no spares) makes at most one heap
// object per 64 requests from sim.New to Finish: VMs come from chunks of
// vmChunkSize and their demands from blocks, event records from slabs,
// and an event allocates nothing. The run is the whole week because a
// run's fixed cost, about 200 objects (its maps, feeds and series growing
// to size), exceeds the budget of a day's 10,280 requests.
func TestFirstFitRunAllocBudget(t *testing.T) {
	reqs := tenfold(t, 7)
	dc := cluster.TableIIFleetScaled(1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(Config{DC: dc, Placer: policy.FirstFit{}, Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	res := runToEnd(t, m)
	runtime.ReadMemStats(&after)
	allocs, budget := after.Mallocs-before.Mallocs, uint64(len(reqs)/64)
	if allocs > budget {
		t.Errorf("%d requests, %d events: %d allocations, budget %d", len(reqs), m.Dispatched(), allocs, budget)
	}
	t.Logf("%d requests, %d events, %d completed: %d allocations (budget %d)",
		len(reqs), m.Dispatched(), res.Summary.VMsCompleted, allocs, budget)
}
