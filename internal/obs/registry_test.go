package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	// Same name returns the same metric.
	if r.Counter("a") != c || r.Gauge("g") != g {
		t.Error("registry returned a different instance for an existing name")
	}
}

func TestNilMetricsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Span
	var o *Observer
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	if start := s.Begin(); start != 0 {
		t.Error("nil span read the clock")
	} else {
		s.End(start)
	}
	// The idiom instrumented code uses, through a nil observer.
	func() {
		phase := o.Phase("x")
		defer phase.End(phase.Begin())
	}()
	o.Add("x", 1)
	o.SetGauge("x", 1)
	o.Emit(0, "x")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || s.Calls() != 0 {
		t.Error("nil metrics reported nonzero values")
	}
	if o.Counter("x") != nil || o.Phase("x") != nil || o.Tracing() {
		t.Error("nil observer handed out live metrics")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	// SearchFloat64s: bucket i counts v with bounds[i-1] < v <= ... first
	// index where bounds[i] >= v.
	want := []int64{2, 1, 1, 2} // {0.5,1}, {5}, {50}, {500,5000}
	for i, w := range want {
		if got := h.Bucket(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-5556.5) > 1e-9 {
		t.Errorf("sum = %g, want 5556.5", h.Sum())
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds accepted")
		}
	}()
	NewRegistry().Histogram("bad", []float64{10, 1})
}

// TestConcurrentHotPath hammers every atomic update path from many
// goroutines; `go test -race ./internal/obs` is the real assertion here,
// the totals just confirm no update was lost.
func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 100})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			sp := r.phase("work")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.Gauge("level").Set(float64(i))
				h.Observe(float64(i % 200))
				sp.End(sp.Begin())
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Errorf("hits = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.phase("work").Calls(); got != workers*perWorker {
		t.Errorf("span calls = %d, want %d", got, workers*perWorker)
	}
}

func TestWriteJSONShape(t *testing.T) {
	o := New()
	o.Add("migrations", 7)
	o.SetGauge("active_pms", 12)
	o.Reg.Histogram("wait", []float64{1, 60}).Observe(0.5)
	o.Phase("kernel_build").End(o.Phase("kernel_build").Begin())

	var buf bytes.Buffer
	if err := o.Reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]float64
		Histograms map[string]struct {
			Counts []int64
			Count  int64
		}
		Phases map[string]struct {
			Calls   int64
			TotalNS int64 `json:"total_ns"`
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.Counters["migrations"] != 7 {
		t.Errorf("counters.migrations = %d", got.Counters["migrations"])
	}
	if got.Gauges["active_pms"] != 12 {
		t.Errorf("gauges.active_pms = %g", got.Gauges["active_pms"])
	}
	if got.Histograms["wait"].Count != 1 {
		t.Errorf("histograms.wait.count = %d", got.Histograms["wait"].Count)
	}
	if got.Phases["kernel_build"].Calls != 1 {
		t.Errorf("phases.kernel_build.calls = %d", got.Phases["kernel_build"].Calls)
	}
}

func TestWriteText(t *testing.T) {
	o := New()
	o.Add("boots", 3)
	o.SetGauge("spares", 2)
	o.Phase("dispatch").End(o.Phase("dispatch").Begin())
	o.Reg.Histogram("wait", []float64{1}).Observe(2)
	var buf bytes.Buffer
	if err := o.Reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"boots", "spares", "phase dispatch", "hist  wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
}

func TestSpanAccumulates(t *testing.T) {
	var s Span
	start := s.Begin()
	s.End(start)
	func() { defer s.End(s.Begin()) }()
	if s.Calls() != 2 {
		t.Errorf("calls = %d, want 2", s.Calls())
	}
	if allocs := testing.AllocsPerRun(100, func() { s.End(s.Begin()) }); allocs != 0 {
		t.Errorf("Begin/End allocate %.1f times a region", allocs)
	}
	if s.TotalNS() < 0 {
		t.Errorf("total ns negative: %d", s.TotalNS())
	}
}

// TestRefsResolveOnFirstUse: a CounterRef or SpanRef names a metric
// without creating it — a metrics dump must list exactly what was counted
// or timed — and once used it is the registry's own metric. On a nil
// Observer both are inert.
func TestRefsResolveOnFirstUse(t *testing.T) {
	o := New()
	c, s := o.CounterRef("c"), o.SpanRef("s")
	if snap := o.Reg.snapshot(); len(snap.Counters) != 0 || len(snap.Phases) != 0 {
		t.Fatalf("unused refs created metrics: %+v", snap)
	}
	c.Add(2)
	c.Add(3)
	s.Span().End(s.Span().Begin())
	if got := o.Reg.Counter("c").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if o.Phase("s") != s.Span() || s.Span().Calls() != 1 {
		t.Error("span ref is not the registry's span")
	}
	var none *Observer
	nc, ns := none.CounterRef("c"), none.SpanRef("s")
	nc.Add(1)
	if ns.Span() != nil {
		t.Error("nil observer's span ref handed out a live span")
	}
}
