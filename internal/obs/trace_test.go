package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixedWall pins the tracer's wall clock for byte-exact assertions.
func fixedWall(tr *Tracer, ns int64) { tr.wall = func() int64 { return ns } }

// rendered is the JSONL form of a stream of records.
func rendered(t *testing.T, stream []byte) string {
	t.Helper()
	var out bytes.Buffer
	if err := Render(bytes.NewReader(stream), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestEmitFieldOrderAndTypes(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	fixedWall(tr, 42)
	tr.Emit(3600, "migration",
		I("vm", 7), I("from", 0), I("to", 12), F("gain", 1.25), S("note", `a"b`), B("timed", true))
	want := `{"v":1,"seq":0,"t":3600,"event":"migration","vm":7,"from":0,"to":12,"gain":1.25,"note":"a\"b","timed":true,"wall":42}` + "\n"
	got := rendered(t, buf.Bytes())
	if got != want {
		t.Errorf("line mismatch:\ngot  %s\nwant %s", got, want)
	}
	// Every line must be valid JSON.
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if m["from"] != float64(0) {
		t.Error("zero-valued ID field dropped — PM IDs are 0-based, zeros must survive")
	}
}

func TestSeqIsLogicalClock(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	fixedWall(tr, 1)
	for i := 0; i < 3; i++ {
		tr.Emit(float64(i), "tick")
	}
	if tr.Events() != 3 {
		t.Errorf("events = %d, want 3", tr.Events())
	}
	lines := strings.Split(strings.TrimSpace(rendered(t, buf.Bytes())), "\n")
	for i, line := range lines {
		if !strings.Contains(line, fmt.Sprintf(`"seq":%d,`, i)) {
			t.Errorf("line %d missing seq %d: %s", i, i, line)
		}
	}
}

func TestCanonicalLineStripsOnlyWall(t *testing.T) {
	in := []byte(`{"v":1,"seq":0,"t":0,"event":"boot","pm":3,"wall":123456789}` + "\n")
	want := `{"v":1,"seq":0,"t":0,"event":"boot","pm":3}`
	if got := string(CanonicalLine(in)); got != want {
		t.Errorf("canonical = %s, want %s", got, want)
	}
	// A line without a wall field passes through unchanged.
	plain := `{"v":1,"seq":1,"t":0,"event":"x"}`
	if got := string(CanonicalLine([]byte(plain + "\n"))); got != plain {
		t.Errorf("plain line changed: %s", got)
	}
	// A wall-like string VALUE must not confuse the cut: the wall field is
	// always last, so only the final occurrence is removed.
	tricky := `{"v":1,"seq":2,"t":0,"event":"x","note":",\"wall\":9","wall":5}`
	got := string(CanonicalLine([]byte(tricky)))
	if !strings.Contains(got, `"note"`) || strings.HasSuffix(got, `"wall":5}`) {
		t.Errorf("tricky canonical = %s", got)
	}
}

func TestCanonicalizeMakesRunsComparable(t *testing.T) {
	emit := func(wall int64) string {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		fixedWall(tr, wall)
		tr.Emit(0, "arrival", I("vm", 1))
		tr.Emit(60, "depart", I("vm", 1), I("pm", 0))
		return buf.String()
	}
	a, b := emit(100), emit(999)
	if a == b {
		t.Fatal("wall clocks should differ before canonicalization")
	}
	var ca, cb bytes.Buffer
	if err := Canonicalize(strings.NewReader(a), &ca); err != nil {
		t.Fatal(err)
	}
	if err := Canonicalize(strings.NewReader(b), &cb); err != nil {
		t.Fatal(err)
	}
	if ca.String() != cb.String() {
		t.Errorf("canonical traces differ:\n%s\nvs\n%s", ca.String(), cb.String())
	}
}

func TestEmitNonFiniteFloatsStayValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	fixedWall(tr, 1)
	tr.Emit(0, "weird", F("nan", math.NaN()), F("inf", math.Inf(1)))
	line := rendered(t, buf.Bytes())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("non-finite floats broke JSON: %v\n%s", err, line)
	}
}

func TestConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	fixedWall(tr, 7)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(float64(i), "tick", I("n", int64(i)))
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(rendered(t, buf.Bytes())), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved write produced invalid JSON: %v\n%s", err, line)
		}
	}
	if tr.Err() != nil {
		t.Errorf("unexpected tracer error: %v", tr.Err())
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestTracerCapturesFirstWriteError(t *testing.T) {
	tr := NewTracer(&failWriter{})
	fixedWall(tr, 1)
	tr.Emit(0, "a")
	tr.Emit(1, "b")
	tr.Emit(2, "c")
	if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "disk full") {
		t.Errorf("err = %v, want disk full", tr.Err())
	}
}

// TestTraceFile: records sit in the write buffer until Close puts them in
// the file; Close reports a write the tracer saw fail; a path that cannot
// be created is an error from CreateTrace, not a tracer that drops events.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	tf, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	tf.Emit(0, "run_start")
	tf.Emit(1, "run_end")
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := rendered(t, data)
	if n := strings.Count(text, "\n"); n != 2 || tf.Events() != 2 {
		t.Errorf("%d records on disk, %d events counted, want 2 and 2:\n%s", n, tf.Events(), text)
	}

	failed, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	failed.f.Close() // the flush below now fails
	failed.Emit(0, "run_start")
	if err := failed.Close(); err == nil {
		t.Error("Close hid a failed flush")
	}

	if _, err := CreateTrace(filepath.Join(t.TempDir(), "missing", "run.jsonl")); err == nil {
		t.Error("CreateTrace into a missing directory succeeded")
	}
}

// TestDecisionStreamIsolated pins the decision log's independence from
// the run trace: its own tracer, its own seq clock, and EmitDecision is
// inert without a Decisions tracer.
func TestDecisionStreamIsolated(t *testing.T) {
	var runBuf, decBuf bytes.Buffer
	o := NewTracing(&runBuf)
	o.Decisions = NewTracer(&decBuf)
	fixedWall(o.Trace, 42)
	fixedWall(o.Decisions, 42)

	if !o.DecisionTracing() {
		t.Fatal("DecisionTracing false with a Decisions tracer set")
	}

	o.Emit(1, "run_event")
	o.Emit(2, "run_event")
	o.EmitDecision(2, "decision_place", I("vm", 7))
	o.EmitDecision(3, "decision_spare", I("spares", 1))

	dec := strings.Split(strings.TrimSpace(rendered(t, decBuf.Bytes())), "\n")
	if len(dec) != 2 {
		t.Fatalf("decision stream has %d lines, want 2", len(dec))
	}
	// Independent seq clock: decisions number from 0 even though the run
	// trace already consumed seqs.
	if !strings.Contains(dec[0], `"seq":0,`) || !strings.Contains(dec[1], `"seq":1,`) {
		t.Errorf("decision seqs not independent: %q", dec)
	}
	if run := rendered(t, runBuf.Bytes()); strings.Contains(run, "decision_") || o.Trace.Events() != 2 {
		t.Errorf("decision records leaked into the run trace: %s", run)
	}

	// Without a Decisions tracer both helpers are inert.
	plain := New()
	if plain.DecisionTracing() {
		t.Error("DecisionTracing true without a Decisions tracer")
	}
	plain.EmitDecision(1, "decision_place") // no-op, must not panic
	var nilObs *Observer
	nilObs.EmitDecision(1, "decision_place")
	if nilObs.DecisionTracing() {
		t.Error("nil observer reports decision tracing")
	}
}
