package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %g, want 30", e.Now())
	}
	if e.Dispatched() != 3 {
		t.Errorf("Dispatched = %d", e.Dispatched())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.ScheduleAfter(4, func() { times = append(times, e.Now()) })
	})
	e.Schedule(2, func() { times = append(times, e.Now()) })
	e.Run()
	want := []float64{1, 2, 5}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times = %v, want %v", times, want)
		}
	}
}

// live reports whether the event behind ev is still queued.
func live(ev Event) bool { return ev.rec != nil && ev.rec.seq == ev.seq }

func TestEngineCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(5, func() { fired = true })
	if !live(ev) {
		t.Error("scheduled event not Live")
	}
	if !ev.Cancel() {
		t.Error("Cancel of a live event returned false")
	}
	if live(ev) {
		t.Error("cancelled event still Live")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancel after run is a no-op.
	if ev.Cancel() {
		t.Error("double Cancel returned true")
	}
}

func TestEngineZeroEventHandle(t *testing.T) {
	var ev Event
	if live(ev) {
		t.Error("zero Event is Live")
	}
	if ev.Cancel() {
		t.Error("zero Event Cancel returned true")
	}
}

func TestEngineHandleStaleAfterFire(t *testing.T) {
	var e Engine
	ev := e.Schedule(1, func() {})
	e.Run()
	if live(ev) {
		t.Error("fired event still Live")
	}
	// The record behind ev has been recycled; a later Schedule may reuse
	// it. The stale handle must not be able to cancel the new event.
	ev2 := e.Schedule(2, func() {})
	if ev.Cancel() {
		t.Error("stale handle cancelled a recycled record")
	}
	if !live(ev2) {
		t.Error("stale Cancel killed an unrelated event")
	}
}

func TestEngineSelfCancelDuringFire(t *testing.T) {
	var e Engine
	var ev Event
	fired := 0
	ev = e.Schedule(1, func() {
		fired++
		if ev.Cancel() {
			t.Error("event cancelled itself from inside its own callback")
		}
		// Nested schedules may reuse the just-recycled record.
		e.ScheduleAfter(1, func() { fired++ })
	})
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestEnginePanics(t *testing.T) {
	cases := map[string]func(e *Engine){
		"past": func(e *Engine) { e.Schedule(5, func() {}); e.Run(); e.Schedule(1, func() {}) },
		"nan":  func(e *Engine) { e.Schedule(math.NaN(), func() {}) },
		"inf":  func(e *Engine) { e.Schedule(math.Inf(1), func() {}) },
		"nil":  func(e *Engine) { e.Schedule(1, nil) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			var e Engine
			f(&e)
		}()
	}
}

func TestEngineStepEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// Property: events fire in non-decreasing time order regardless of insert
// order.
func TestQuickEngineOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		var e Engine
		var fired []float64
		for _, x := range raw {
			at := float64(x)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%97), func() {})
		}
		e.Run()
	}
}
