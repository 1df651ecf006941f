package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe on a
// nil receiver (no-ops / zero), so instrumented code never guards.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. The hot path is a single atomic add.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric stored as atomic float bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set records v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bounded histogram: observations are counted into the
// bucket of the first bound >= v, with one implicit overflow bucket. The
// bucket counts, total count, and sum all update atomically (the sum via
// a CAS loop), so concurrent runs can share nothing but still be
// race-clean under `go test -race`.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	n      atomic.Int64
	sum    atomic.Uint64 // float bits, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Span accumulates wall-clock time spent in one named phase. Timing a
// region is cheap enough for per-event use: two monotonic clock reads and
// two atomic adds, no allocation.
type Span struct {
	calls Counter
	ns    Counter
}

// Begin starts the clock on a region that End closes:
// `defer s.End(s.Begin())`, or the pair around the region. The start is
// monotonic nanoseconds since the process's clock origin. Safe on a nil
// receiver, which reads no clock.
func (s *Span) Begin() int64 {
	if s == nil {
		return 0
	}
	return monoNS()
}

// End closes the region Begin opened at start.
func (s *Span) End(start int64) {
	if s != nil {
		s.calls.Add(1)
		s.ns.Add(monoNS() - start)
	}
}

// Calls returns how many times the phase ran.
func (s *Span) Calls() int64 {
	if s == nil {
		return 0
	}
	return s.calls.Value()
}

// TotalNS returns the accumulated wall-clock nanoseconds.
func (s *Span) TotalNS() int64 {
	if s == nil {
		return 0
	}
	return s.ns.Value()
}

// Registry holds named metrics. Lookup (get-or-create) takes a mutex;
// updates on the returned metric are lock-free, so hot paths cache the
// pointer once and pay only atomics per event.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	phases map[string]*Span
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		phases: make(map[string]*Span),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket bounds (ascending). Bounds are fixed at creation; later
// calls with different bounds return the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		r.hists[name] = h
	}
	return h
}

func (r *Registry) phase(name string) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.phases[name]
	if !ok {
		s = &Span{}
		r.phases[name] = s
	}
	return s
}

// histSnapshot is a histogram's JSON form.
type histSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// phaseSnapshot is a span's JSON form.
type phaseSnapshot struct {
	Calls   int64 `json:"calls"`
	TotalNS int64 `json:"total_ns"`
}

// snapshot captures every metric under the registry lock.
type snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]histSnapshot  `json:"histograms"`
	Phases     map[string]phaseSnapshot `json:"phases"`
}

func (r *Registry) snapshot() snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]histSnapshot, len(r.hists)),
		Phases:     make(map[string]phaseSnapshot, len(r.phases)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := histSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	for name, sp := range r.phases {
		s.Phases[name] = phaseSnapshot{Calls: sp.Calls(), TotalNS: sp.TotalNS()}
	}
	return s
}

// WriteJSON dumps every metric as one JSON object. Map keys are emitted
// in sorted order (encoding/json's map behaviour), so the dump layout is
// deterministic even though timing values are wall-clock.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshot())
}

// WriteText renders a human-readable metrics summary: counters and
// gauges one per line, phases with call counts and mean latency.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.snapshot()
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%-36s %12d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%-36s %12g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Phases) {
		p := s.Phases[name]
		mean := time.Duration(0)
		if p.Calls > 0 {
			mean = time.Duration(p.TotalNS / p.Calls)
		}
		if _, err := fmt.Fprintf(w, "phase %-30s %12d calls  total %-12s mean %s\n",
			name, p.Calls, time.Duration(p.TotalNS), mean); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "hist  %-30s %12d samples  sum %g\n", name, h.Count, h.Sum); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
