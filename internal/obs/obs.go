// Package obs is the simulator's zero-dependency observability layer:
// a metrics registry (counters, gauges, bounded histograms) with atomic
// hot-path updates, a structured JSONL run tracer with schema-versioned
// events, and per-phase wall-clock timing spans.
//
// Everything is nil-safe: an Observer that was never constructed (a nil
// pointer) turns every call into a no-op, so instrumented code paths need
// no guards and pay only a nil check when observability is off. The
// simulator threads a single *Observer through sim.Config, core.Context,
// and spare.Controller; both CLIs expose it via -trace / -metrics.
//
// Determinism contract: trace events carry only simulation-derived data
// plus one wall-clock field ("wall", always the final key of a line).
// CanonicalLine strips it, after which two same-seed runs produce
// byte-identical traces — the golden-trace regression test and
// `tracestat -diff` are built on this.
package obs

import (
	"io"
	"strconv"
)

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
	// one (cmd/dvmpsim's TestTraceEquivalence pins this). Decision lines never carry
	// the multi-cell stamp either: decisions are bit-identical across
	// cell counts, so the log is canonical by construction.
	Decisions *Tracer

	// cellPlus1 is the active cell scope plus one; zero means no scope.
	// The offset keeps a literal-constructed Observer{} (scope never
	// set) from silently reporting cell 0. Set via EnterCell/LeaveCell
	// by the multi-cell engine around each dispatched event; read by
	// AddScoped to double-book counters per cell. Single-writer by the
	// run's own event loop, like the simulator state itself.
	cellPlus1 int

	// cellNames caches "@cellK" counter suffixes so scoped increments
	// on the hot path do not re-format the label.
	cellNames []string
}

// New returns an Observer that collects metrics only.
func New() *Observer {
	return &Observer{Reg: NewRegistry()}
}

// NewTracing returns an Observer that collects metrics and writes JSONL
// trace events to w. The caller owns w (and should flush/close it after
// the run); Tracer buffers internally per line only.
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

// EnterCell sets the ambient cell scope: trace events emitted until
// LeaveCell carry a trailing non-canonical "cell" field, and AddScoped
// counters double-book into "<name>@cellK", so per-cell tallies never
// share a sink (the experiment harness keys its sinks by (scheme, seed)
// for the same reason).
func (o *Observer) EnterCell(c int) {
	if o == nil {
		return
	}
	o.cellPlus1 = c + 1
	if o.Trace != nil {
		o.Trace.SetCell(int64(c))
	}
}

// LeaveCell clears the cell scope.
func (o *Observer) LeaveCell() {
	if o == nil {
		return
	}
	o.cellPlus1 = 0
	if o.Trace != nil {
		o.Trace.ClearCell()
	}
}

// CellScope returns the active cell scope, if one is set.
func (o *Observer) CellScope() (cell int, ok bool) {
	if o == nil || o.cellPlus1 == 0 {
		return 0, false
	}
	return o.cellPlus1 - 1, true
}

// AddScoped increments the named counter and, when a cell scope is
// active, the per-cell "<name>@cellK" counter as well. The base counter
// always carries the global total, so existing consumers are unchanged;
// the suffixed counters add the per-cell breakdown without any shared
// sink between cells.
func (o *Observer) AddScoped(name string, n int64) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Reg.Counter(name).Add(n)
	if o.cellPlus1 > 0 {
		o.Reg.Counter(name + o.cellSuffix(o.cellPlus1-1)).Add(n)
	}
}

// ObserveScoped records v into the named histogram and, when a cell
// scope is active, into the per-cell "<name>@cellK" histogram as well —
// the histogram counterpart of AddScoped. The base histogram always
// carries the global distribution, so existing consumers are unchanged;
// the suffixed histograms add the per-cell breakdown without any shared
// sink between cells (their bucket counts and sums partition the
// base's exactly). Bounds are fixed at first creation, so every call
// site for one name must pass the same bounds.
func (o *Observer) ObserveScoped(name string, bounds []float64, v float64) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Reg.Histogram(name, bounds).Observe(v)
	if o.cellPlus1 > 0 {
		o.Reg.Histogram(name+o.cellSuffix(o.cellPlus1-1), bounds).Observe(v)
	}
}

// cellSuffix returns the cached "@cellK" label for cell c.
func (o *Observer) cellSuffix(c int) string {
	for len(o.cellNames) <= c {
		o.cellNames = append(o.cellNames, "@cell"+strconv.Itoa(len(o.cellNames)))
	}
	return o.cellNames[c]
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
