package sim

import "testing"

// benchDelay is a cheap xorshift delay stream shared by the engine
// benchmarks, so every run sees the same schedule.
type benchDelay uint64

func (d *benchDelay) next() float64 {
	x := uint64(*d)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*d = benchDelay(x)
	return float64(x%1024) * 0.125
}

// BenchmarkEngineSteadyState measures the zero-allocation hot loop: one
// schedule plus one dispatch against a settled 4096-event population.
func BenchmarkEngineSteadyState(b *testing.B) {
	var e Engine
	nop := func() {}
	d := benchDelay(0x243F6A8885A308D3)
	for i := 0; i < 4096; i++ {
		e.Schedule(d.next(), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+d.next(), nop)
		e.Step()
	}
}

// BenchmarkEngineCancel measures schedule-then-cancel churn — the
// disarm-a-timer pattern cloudsim uses for departures and failures.
func BenchmarkEngineCancel(b *testing.B) {
	var e Engine
	nop := func() {}
	d := benchDelay(0x452821E638D01377)
	for i := 0; i < 1024; i++ {
		e.Schedule(d.next(), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.Now()+100+d.next(), nop)
		ev.Cancel()
	}
}

// BenchmarkEngineBulk schedules 10k events up front and drains them: the
// heap at its deepest, then shrinking.
func BenchmarkEngineBulk(b *testing.B) {
	nop := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		d := benchDelay(0x9E3779B97F4A7C15)
		for j := 0; j < 10_000; j++ {
			e.Schedule(d.next()*1000, nop)
		}
		e.Run()
	}
}
