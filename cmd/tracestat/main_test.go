package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spare"
	"repro/internal/workload"
)

// writeTrace runs a small deterministic simulation and writes its binary
// trace to a temp file. cmd packages cannot import each other, so traces
// are produced through the sim API exactly as dvmpsim -trace does.
func writeTrace(t *testing.T, seed int64) string {
	t.Helper()
	jobs := workload.MustGenerate(workload.DefaultWeekConfig(seed))
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	workload.SortBySubmit(jobs)
	if len(jobs) > 120 {
		jobs = jobs[:120]
	}
	placer, err := policy.ByName("dynamic", seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	sc := spare.DefaultConfig()
	cfg := sim.Config{
		DC:       cluster.TableIIFleetScaled(12),
		Placer:   placer,
		Requests: workload.ToRequests(jobs),
		Spare:    &sc,
		Obs:      obs.NewTracing(w),
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummarize(t *testing.T) {
	path := writeTrace(t, 7)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"run: scheme=dynamic", "event counts:", "arrival", "run_end", "spare_plan"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("clean run summarized with a warning:\n%s", out)
	}
}

func TestSummarizeHourTable(t *testing.T) {
	path := writeTrace(t, 7)
	var sb strings.Builder
	if err := run([]string{"-hours", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "hour") || !strings.Contains(out, "migration") {
		t.Errorf("-hours output missing table header:\n%s", out)
	}
	// The table must have at least one data row starting with an hour index.
	if !strings.Contains(out, "\n0     ") {
		t.Errorf("-hours output missing hour-0 row:\n%s", out)
	}
}

// TestDiffSameSeed is the CLI face of the determinism guarantee: two runs
// with identical configuration must yield byte-identical traces once the
// wall-clock field is ignored.
func TestDiffSameSeed(t *testing.T) {
	a := writeTrace(t, 7)
	b := writeTrace(t, 7)
	var sb strings.Builder
	if err := run([]string{"-diff", a, b}, &sb); err != nil {
		t.Fatalf("same-seed traces reported as different: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "traces identical") {
		t.Errorf("diff output missing verdict:\n%s", sb.String())
	}
}

func TestDiffDifferentSeeds(t *testing.T) {
	a := writeTrace(t, 7)
	b := writeTrace(t, 8)
	var sb strings.Builder
	err := run([]string{"-diff", a, b}, &sb)
	if err == nil {
		t.Fatal("different-seed traces reported as identical")
	}
	if !strings.Contains(sb.String(), "diverge") && !strings.Contains(sb.String(), "lengths differ") {
		t.Errorf("diff output missing divergence report:\n%s", sb.String())
	}
}

// renderTo writes the JSONL form of the trace at path to a new file.
func renderTo(t *testing.T, path string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "rendered.jsonl")
	if err := run([]string{"-render", path, out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRender: -render writes one JSON object a line, to a file or to
// standard output, and a rendered trace is the same trace to every mode —
// a JSONL trace from an earlier build against a binary one from this.
func TestRender(t *testing.T) {
	bin := writeTrace(t, 7)
	jsonl := renderTo(t, bin)
	text, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	if err := run([]string{"-render", bin}, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(text) {
		t.Error("-render to standard output differs from -render to a file")
	}
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	if !strings.HasPrefix(lines[0], `{"v":1,"seq":0,"t":0,"event":"run_start","scheme":"dynamic",`) ||
		!strings.Contains(lines[len(lines)-1], `"event":"run_end"`) {
		t.Errorf("rendered trace runs %s ... %s", lines[0], lines[len(lines)-1])
	}
	var sb strings.Builder
	if err := run([]string{"-diff", jsonl, bin}, &sb); err != nil || !strings.Contains(sb.String(), "traces identical") {
		t.Errorf("a trace and its rendering differ: %v\n%s", err, sb.String())
	}
	var a, b strings.Builder
	if err := run([]string{"-hours", bin}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-hours", jsonl}, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Replace(a.String(), bin, jsonl, 1) != b.String() {
		t.Errorf("summaries differ:\n%s\n%s", a.String(), b.String())
	}
	if again := renderTo(t, jsonl); !sameFile(t, again, jsonl) {
		t.Error("rendering a JSONL trace changed it")
	}
}

func sameFile(t *testing.T, a, b string) bool {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(da, db)
}

// TestDiffRejectsDamagedTraces pins the -diff integrity contract: a
// damaged trace must exit nonzero with the reason named, never agree
// vacuously. Before the check, two empty files — say, from a run killed
// before its first flush — diffed as "traces identical: 0 events". The
// damage is done to the binary trace and to its JSONL rendering.
func TestDiffRejectsDamagedTraces(t *testing.T) {
	good := writeTrace(t, 7)
	binData, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	goodData, err := os.ReadFile(renderTo(t, good))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	empty := write("empty.jsonl", nil)
	blank := write("blank.jsonl", []byte("\n\n  \n"))
	// Truncate mid-line so the tail is invalid JSON.
	truncated := write("truncated.jsonl", goodData[:len(goodData)-20])
	// Header-only: the run_start line with no run_end footer — every
	// line valid JSON, but the run never finished.
	headerOnly := write("header.jsonl", goodData[:bytes.IndexByte(goodData, '\n')+1])
	// The binary trace cut inside its last record, and followed by a byte
	// that starts no record.
	binTruncated := write("truncated.bin", binData[:len(binData)-3])
	binTag := write("tag.bin", append(append([]byte(nil), binData...), 0x7f))

	cases := []struct {
		name, a, b, want string
	}{
		{"empty-vs-empty", empty, empty, "empty trace"},
		{"empty-vs-good", empty, good, "empty trace"},
		{"blank-only", blank, good, "empty trace"},
		{"truncated", good, truncated, "invalid JSON"},
		{"header-only", headerOnly, good, "run_start without run_end"},
		{"binary truncated", good, binTruncated, "truncated record"},
		{"binary unknown tag", binTag, good, "unknown record tag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run([]string{"-diff", tc.a, tc.b}, &sb)
			if err == nil {
				t.Fatalf("damaged trace diffed clean:\n%s", sb.String())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the damage (want %q)", err, tc.want)
			}
		})
	}
}

func TestArgErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"-bogus", "x"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-diff", "only-one.jsonl"}, &sb); err == nil {
		t.Error("-diff with one file accepted")
	}
	if err := run([]string{"-render"}, &sb); err == nil {
		t.Error("-render with no file accepted")
	}
	if err := run([]string{"-render", "a", "b", "c"}, &sb); err == nil {
		t.Error("-render with three files accepted")
	}
	if err := run([]string{"-render", "-diff", "a", "b"}, &sb); err == nil {
		t.Error("-render with -diff accepted")
	}
	if err := run([]string{"/nonexistent/trace.jsonl"}, &sb); err == nil {
		t.Error("missing trace accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}, &sb); err == nil {
		t.Error("empty trace accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &sb); err == nil {
		t.Error("malformed trace accepted")
	}
}
