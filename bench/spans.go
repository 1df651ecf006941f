package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/policy"
)

// Span names. The tree is run -> {sim.new, sim.step (one per event),
// sim.finish}; policy.* spans hang off the sim.step that caused them.
const (
	spanRun = iota
	spanNew
	spanStep
	spanFinish
	spanPlace
	spanConsolidate
	spanSpareTarget
	nSpanNames
)

var spanNames = [nSpanNames]string{"run", "sim.new", "sim.step", "sim.finish", "policy.place", "policy.consolidate", "policy.spare_target"}

type span struct {
	name       uint8
	parent     int32 // -1 for the root
	start, end int64 // ns since the recorder was made
}

// recorder keeps the traced run's spans in memory; they are written out
// only after the run. The benchmark is single-threaded around the calls it
// times, so nesting is a cursor, not a stack. A nil *recorder records
// nothing, which is how the untraced runs share the run loop.
type recorder struct {
	base  time.Time
	spans []span
	cur   int32
}

// newRecorder sizes the slice from an untraced run's event count so the
// traced run never pays a grow-and-copy inside a span.
func newRecorder(events uint64) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 4*events+16), cur: -1}
}

func (r *recorder) begin(name uint8) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: r.cur, start: int64(time.Since(r.base))})
	r.cur = id
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.end = int64(time.Since(r.base))
	r.cur = s.parent
}

// drop forgets the innermost open span.
func (r *recorder) drop(id int32) {
	if r == nil {
		return
	}
	r.cur = r.spans[id].parent
	r.spans = r.spans[:id]
}

// spanStats is the tree reduced per span name: total and self time, call
// count, and the sorted durations percentiles are read from.
type spanStats struct {
	total, self [nSpanNames]int64
	calls       [nSpanNames]int
	durs        [nSpanNames][]int64
}

// stats computes self time as a span's duration minus the part its
// children cover; children never overlap here, so that is their sum.
func (r *recorder) stats() spanStats {
	var st spanStats
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		d := s.end - s.start
		st.total[s.name] += d
		st.self[s.name] += d - covered[i]
		st.calls[s.name]++
		if s.name >= spanPlace {
			st.durs[s.name] = append(st.durs[s.name], d)
		}
	}
	for _, d := range st.durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return st
}

func (st *spanStats) seconds(name int) float64     { return float64(st.total[name]) / 1e9 }
func (st *spanStats) selfSeconds(name int) float64 { return float64(st.self[name]) / 1e9 }

// percentileUS reads the p-th percentile (nearest rank) of a span name's
// durations in microseconds; 0 when the name never ran.
func (st *spanStats) percentileUS(name int, p float64) float64 {
	d := st.durs[name]
	if len(d) == 0 {
		return 0
	}
	i := int(p*float64(len(d))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return float64(d[i]) / 1e3
}

// writeJSONL writes one {id, parent, name, start_ns, end_ns} object per
// line. Hand-formatted: the 1k-PM week has ~650k spans.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var b []byte
	for i, s := range r.spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.name]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		w.Write(b) // a failed write is sticky and reported by Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedPolicy wraps the run's placer for the traced run: one span per
// decision-point call, plus the outcome counts the wasted-work ratios
// need. It forwards Unwrap so sim's DynamicOf / CaptureState integrations
// still reach the scheme underneath.
type timedPolicy struct {
	p   policy.Policy
	rec *recorder

	placeMisses, moves, emptyPasses int
}

func (t *timedPolicy) Name() string          { return t.p.Name() }
func (t *timedPolicy) Unwrap() policy.Placer { return t.p }

func (t *timedPolicy) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	id := t.rec.begin(spanPlace)
	pm := t.p.Place(ctx, vm)
	t.rec.end(id)
	if pm == nil {
		t.placeMisses++
	}
	return pm
}

func (t *timedPolicy) Consolidate(ctx *core.Context) ([]core.Move, error) {
	id := t.rec.begin(spanConsolidate)
	moves, err := t.p.Consolidate(ctx)
	t.rec.end(id)
	t.moves += len(moves)
	if len(moves) == 0 {
		t.emptyPasses++
	}
	return moves, err
}

func (t *timedPolicy) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return t.p.Alternatives(ctx, vm, k)
}

func (t *timedPolicy) SpareTarget(ctx *core.Context, baseline int) int {
	id := t.rec.begin(spanSpareTarget)
	n := t.p.SpareTarget(ctx, baseline)
	t.rec.end(id)
	return n
}
