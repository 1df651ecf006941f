package sim

import "testing"

// These tests pin the cancellation contract the control loop's liveness
// test depends on: Cancel takes the event out of the heap at once, so
// Pending() is exact by construction.

func TestPendingCountsLiveEventsOnly(t *testing.T) {
	var e Engine
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = e.Schedule(float64(i+1), func() {})
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 7; i++ {
		evs[i].Cancel()
	}
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending after 7 cancels = %d, want 3", got)
	}
	// Double-cancel must not double-count.
	if evs[0].Cancel() {
		t.Fatal("double Cancel returned true")
	}
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending after double-cancel = %d, want 3", got)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

func TestCancelledEventsLeaveNoResidue(t *testing.T) {
	var e Engine
	// One far-future live event, then a pile of cancelled ones: each
	// must leave the heap at once, not linger until a lazy reap.
	e.Schedule(1e9, func() {})
	var evs []Event
	for i := 0; i < 500; i++ {
		evs = append(evs, e.Schedule(1e6+float64(i), func() {}))
	}
	for _, ev := range evs {
		if !ev.Cancel() {
			t.Fatal("Cancel of a live event returned false")
		}
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	// VerifyQueue walks every slot: it fails if any cancelled record is
	// still in the heap or a slot's index is stale.
	if err := e.VerifyQueue(); err != nil {
		t.Fatalf("VerifyQueue after mass cancel: %v", err)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if e.Now() != 1e9 {
		t.Fatalf("Now = %g, want 1e9", e.Now())
	}
}

func TestCancelPreservesDispatchOrder(t *testing.T) {
	var e Engine
	var order []int
	var cancelled []Event
	// Interleave live and to-be-cancelled events so removal exercises
	// the root, inner slots and leaves of the heap.
	for i := 0; i < 300; i++ {
		i := i
		if i%3 == 0 {
			e.Schedule(float64(1000-i), func() { order = append(order, 1000-i) })
		} else {
			cancelled = append(cancelled, e.Schedule(float64(2000+i), func() { t.Error("cancelled event fired") }))
		}
	}
	for _, ev := range cancelled {
		ev.Cancel()
	}
	if err := e.VerifyQueue(); err != nil {
		t.Fatalf("VerifyQueue: %v", err)
	}
	e.Run()
	if len(order) != 100 {
		t.Fatalf("fired %d live events, want 100", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("out-of-order dispatch after cancels: %d before %d", order[i-1], order[i])
		}
	}
}

func TestCancelKeepsRunUntilSemantics(t *testing.T) {
	var e Engine
	fired := 0
	for i := 0; i < 200; i++ {
		ev := e.Schedule(float64(i), func() { t.Error("cancelled event fired") })
		ev.Cancel()
	}
	e.Schedule(500, func() { fired++ })
	e.Schedule(1500, func() { fired++ })
	e.RunUntil(1000)
	if fired != 1 {
		t.Fatalf("fired %d events by t=1000, want 1", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}

func TestVerifyQueueAcrossChurn(t *testing.T) {
	var e Engine
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var live []Event
	for i := 0; i < 5000; i++ {
		switch next() % 4 {
		case 0, 1:
			at := e.Now() + float64(next()%10_000)/10
			live = append(live, e.Schedule(at, func() {}))
		case 2:
			if len(live) > 0 {
				k := int(next()) % len(live)
				if k < 0 {
					k = -k
				}
				live[k].Cancel()
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case 3:
			e.Step()
		}
		if i%250 == 0 {
			if err := e.VerifyQueue(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := e.VerifyQueue(); err != nil {
		t.Fatalf("final: %v", err)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
	if err := e.VerifyQueue(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}
