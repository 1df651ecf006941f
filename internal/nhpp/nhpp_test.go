package nhpp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

func TestObserveNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(10).Observe(-1)
}

func TestReversedIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(10).CumulativeIntensity(5, 1)
}

func TestEmptyEstimator(t *testing.T) {
	e := New(100)
	if got := e.CumulativeIntensity(0, 50); got != 0 {
		t.Errorf("empty intensity = %g", got)
	}
	if got := e.CycleMass(); got != 0 {
		t.Errorf("empty cycle mass = %g", got)
	}
	if len(e.arrivals) != 0 || e.period != 100 {
		t.Error("accessors wrong")
	}
}

func TestWarmupFallbackRate(t *testing.T) {
	e := New(1000) // no complete cycle yet
	for _, at := range []float64{10, 20, 30, 40, 50} {
		e.Observe(at)
	}
	// Observed rate = 5 arrivals / 50 s = 0.1/s.
	if got := e.CumulativeIntensity(50, 150); math.Abs(got-10) > 1e-9 {
		t.Errorf("warm-up intensity = %g, want 10", got)
	}
}

func TestUniformCycleEstimate(t *testing.T) {
	// 10 arrivals per 100 s cycle, evenly spaced, for 5 cycles.
	e := New(100)
	for c := 0; c < 5; c++ {
		for i := 0; i < 10; i++ {
			e.Observe(float64(c*100) + float64(i)*10 + 5)
		}
	}
	e.Advance(500)
	// Λ over a full next cycle ~ (n+1)/k = 51/5 = 10.2.
	got := e.CumulativeIntensity(500, 600)
	if math.Abs(got-10.2) > 1e-9 {
		t.Errorf("full-cycle intensity = %g, want 10.2", got)
	}
	// Half cycle ~ half mass (within interpolation slack).
	half := e.CumulativeIntensity(500, 550)
	if math.Abs(half-5.1) > 0.6 {
		t.Errorf("half-cycle intensity = %g, want ~5.1", half)
	}
}

func TestDiurnalShapeRecovered(t *testing.T) {
	// Arrivals concentrated in the first half of each cycle must yield a
	// much larger estimate for the first half than the second.
	e := New(100)
	for c := 0; c < 10; c++ {
		base := float64(c * 100)
		for i := 0; i < 9; i++ {
			e.Observe(base + float64(i)*5) // phases 0..40
		}
		e.Observe(base + 80) // one late arrival
	}
	e.Advance(1000)
	early := e.CumulativeIntensity(1000, 1050)
	late := e.CumulativeIntensity(1050, 1100)
	if early < 3*late {
		t.Errorf("early/late = %g/%g, want strong contrast", early, late)
	}
	// Sum of the halves equals the full cycle mass.
	full := e.CumulativeIntensity(1000, 1100)
	if math.Abs(early+late-full) > 1e-9 {
		t.Errorf("halves %g + %g != full %g", early, late, full)
	}
}

func TestMultiCycleInterval(t *testing.T) {
	e := New(100)
	for c := 0; c < 4; c++ {
		for i := 0; i < 10; i++ {
			e.Observe(float64(c*100) + float64(i)*10)
		}
	}
	e.Advance(400)
	one := e.CumulativeIntensity(400, 500)
	three := e.CumulativeIntensity(400, 700)
	if math.Abs(three-3*one) > 1e-9 {
		t.Errorf("3-cycle intensity %g != 3x one-cycle %g", three, one)
	}
}

func TestWrapAroundInterval(t *testing.T) {
	e := New(100)
	for c := 0; c < 5; c++ {
		for i := 0; i < 10; i++ {
			e.Observe(float64(c*100) + float64(i)*10)
		}
	}
	e.Advance(500)
	// [480, 520) wraps the cycle boundary.
	wrap := e.CumulativeIntensity(480, 520)
	direct := e.CumulativeIntensity(480, 500) + e.CumulativeIntensity(500, 520)
	if math.Abs(wrap-direct) > 1e-9 {
		t.Errorf("wrapped %g != split %g", wrap, direct)
	}
}

func TestCycleMass(t *testing.T) {
	e := New(50)
	for i := 0; i < 20; i++ {
		e.Observe(float64(i) * 5) // 10 per cycle over 2 cycles
	}
	e.Advance(100)
	if got := e.CycleMass(); math.Abs(got-10.5) > 1e-9 { // (20+1)/2
		t.Errorf("CycleMass = %g, want 10.5", got)
	}
}

func TestEstimateAgainstKnownNHPP(t *testing.T) {
	// Simulate a sinusoidal-rate NHPP by thinning and check the
	// estimator recovers interval masses within sampling error.
	r := stats.NewRand(11)
	period := 86400.0
	rate := func(t float64) float64 {
		phase := t / period * 2 * math.Pi
		return (20 + 15*math.Sin(phase)) / 3600 // arrivals per second
	}
	maxRate := 35.0 / 3600
	e := New(period)
	days := 20
	var total int
	for t := 0.0; t < float64(days)*period; {
		t += stats.Exponential(r, 1/maxRate)
		if r.Float64() < rate(t)/maxRate {
			e.Observe(t)
			total++
		}
	}
	now := float64(days) * period
	e.Advance(now)
	// Expected arrivals over [0h, 6h) of a cycle.
	expected := 0.0
	for s := 0.0; s < 6*3600; s++ {
		expected += rate(s)
	}
	got := e.CumulativeIntensity(now, now+6*3600)
	if math.Abs(got-expected)/expected > 0.15 {
		t.Errorf("6h mass = %g, want ~%g (within 15%%)", got, expected)
	}
}

func TestZeroLengthInterval(t *testing.T) {
	e := New(100)
	e.Observe(5)
	if got := e.CumulativeIntensity(50, 50); got != 0 {
		t.Errorf("zero interval = %g", got)
	}
}

// Property: cumulative intensity is additive over adjacent intervals.
func TestQuickAdditive(t *testing.T) {
	e := New(100)
	r := stats.NewRand(3)
	for i := 0; i < 300; i++ {
		e.Observe(r.Float64() * 1000)
	}
	e.Advance(1000)
	f := func(a, b, c uint16) bool {
		x := float64(a%2000) + 1000
		y := x + float64(b%500)
		z := y + float64(c%500)
		whole := e.CumulativeIntensity(x, z)
		split := e.CumulativeIntensity(x, y) + e.CumulativeIntensity(y, z)
		return math.Abs(whole-split) < 1e-6*(1+whole)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: intensity is non-negative and monotone in interval length.
func TestQuickMonotone(t *testing.T) {
	e := New(100)
	r := stats.NewRand(4)
	for i := 0; i < 200; i++ {
		e.Observe(r.Float64() * 500)
	}
	e.Advance(500)
	f := func(a, b, c uint16) bool {
		from := float64(a % 1000)
		l1 := float64(b % 300)
		l2 := l1 + float64(c%300)
		m1 := e.CumulativeIntensity(from, from+l1)
		m2 := e.CumulativeIntensity(from, from+l2)
		return m1 >= 0 && m2 >= m1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCumulativeIntensity(b *testing.B) {
	e := New(86400)
	r := stats.NewRand(1)
	for i := 0; i < 5000; i++ {
		e.Observe(r.Float64() * 7 * 86400)
	}
	e.Advance(7 * 86400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CumulativeIntensity(7*86400, 7*86400+3600)
	}
}
