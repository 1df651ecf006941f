// Package obs is the simulator's zero-dependency observability layer:
// a metrics registry (counters, gauges, bounded histograms) with atomic
// hot-path updates, a structured run tracer with schema-versioned events,
// and per-phase wall-clock timing spans. The tracer writes binary records
// and formats nothing; Render is the one JSONL encoder, run when a stream
// is read.
//
// Everything is nil-safe: an Observer that was never constructed (a nil
// pointer) turns every call into a no-op, so instrumented code paths need
// no guards and pay only a nil check when observability is off. The
// simulator threads a single *Observer through sim.Config, core.Context,
// and spare.Controller; both CLIs expose it via -trace / -metrics.
//
// Determinism contract, stated on the rendered form: trace events carry
// only simulation-derived data plus one wall-clock field ("wall", always
// the final key of a rendered line). Canonicalize renders a stream and
// strips it, after which two same-seed runs produce byte-identical traces
// — the golden-trace regression test and `tracestat -diff` are built on
// this.
package obs

import "io"

// Observer bundles a metrics registry with an optional run tracer. A nil
// Observer is valid and inert.
type Observer struct {
	// Reg collects counters, gauges, and histograms. Always non-nil on
	// a constructed Observer.
	Reg *Registry

	// Trace receives structured run events; nil disables tracing while
	// keeping metrics.
	Trace *Tracer

	// Decisions receives the policy lab's structured decision records
	// (decision_place / decision_moves / decision_spare, emitted by
	// policy.Recorder) on a stream separate from the run trace. The
	// separation is deliberate: the decision log has its own logical
	// clock, so recording decisions never perturbs the run trace's "seq"
	// numbering — a recorded run stays byte-identical to an unrecorded
	// one (cmd/dvmpsim's TestTraceEquivalence pins this).
	Decisions *Tracer
}

// New returns an Observer that collects metrics only.
func New() *Observer {
	return &Observer{Reg: NewRegistry()}
}

// NewTracing returns an Observer that collects metrics and writes trace
// records to w. The caller owns w (and should flush/close it after the
// run); Tracer buffers internally per record only.
func NewTracing(w io.Writer) *Observer {
	return &Observer{Reg: NewRegistry(), Trace: NewTracer(w)}
}

// Counter returns the named counter, or nil (an inert counter) when the
// observer is nil.
func (o *Observer) Counter(name string) *Counter {
	if o == nil || o.Reg == nil {
		return nil
	}
	return o.Reg.Counter(name)
}

// Add increments the named counter by n; a convenience for call sites
// too cold to cache the *Counter.
func (o *Observer) Add(name string, n int64) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Reg.Counter(name).Add(n)
}

// CounterRef returns a reference to the named counter, resolved on its
// first Add; nothing is created before that.
func (o *Observer) CounterRef(name string) CounterRef {
	return CounterRef{o: o, name: name}
}

// SpanRef returns a reference to the named timing span, resolved on the
// first call to its Span method.
func (o *Observer) SpanRef(name string) SpanRef {
	return SpanRef{o: o, name: name}
}

// SetGauge sets the named gauge.
func (o *Observer) SetGauge(name string, v float64) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Reg.Gauge(name).Set(v)
}

// Phase returns the named timing span, or nil (inert) when the observer
// is nil. Hot call sites should cache the *Span.
func (o *Observer) Phase(name string) *Span {
	if o == nil || o.Reg == nil {
		return nil
	}
	return o.Reg.phase(name)
}

// Tracing reports whether trace events are being recorded; call sites use
// it to skip building event payloads entirely when tracing is off.
func (o *Observer) Tracing() bool {
	return o != nil && o.Trace != nil
}

// Emit writes one trace event when tracing is enabled. Cold call sites
// can call it unconditionally; hot ones should guard with Tracing() to
// avoid assembling the key/value payload.
func (o *Observer) Emit(t float64, event string, fields ...KV) {
	if o == nil || o.Trace == nil {
		return
	}
	o.Trace.Emit(t, event, fields...)
}

// DecisionTracing reports whether decision records are being collected;
// policy.Recorder uses it to skip payload assembly entirely when the
// decision log is off.
func (o *Observer) DecisionTracing() bool {
	return o != nil && o.Decisions != nil
}

// EmitDecision writes one decision record when decision tracing is
// enabled. The record goes to the Decisions tracer only — never the run
// trace — so its sequence numbering is independent of run events.
func (o *Observer) EmitDecision(t float64, event string, fields ...KV) {
	if o == nil || o.Decisions == nil {
		return
	}
	o.Decisions.Emit(t, event, fields...)
}

// CounterRef is one named counter of one Observer, looked up in the
// registry on first use and kept: a hot call site pays a nil check and an
// atomic add instead of the registry's mutex and map lookup. The registry
// still creates the counter only when something is counted, so its names
// are exactly those Observer.Add would create. Inert on a nil Observer.
type CounterRef struct {
	o    *Observer
	name string
	c    *Counter
}

// Add increments the counter by n.
func (r *CounterRef) Add(n int64) {
	if r.c == nil && r.o != nil && r.o.Reg != nil {
		r.c = r.o.Reg.Counter(r.name)
	}
	r.c.Add(n)
}

// SpanRef is CounterRef for a timing span.
type SpanRef struct {
	o    *Observer
	name string
	s    *Span
}

// Span returns the span, or nil (inert) when the Observer is nil.
func (r *SpanRef) Span() *Span {
	if r.s == nil && r.o != nil && r.o.Reg != nil {
		r.s = r.o.Reg.phase(r.name)
	}
	return r.s
}
