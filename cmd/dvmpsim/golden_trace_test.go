package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// traceArgs is the fixed scenario the golden trace pins: a small fleet,
// the full dynamic scheme with the spare-server controller, and a
// synthetic workload truncated to keep the trace reviewable.
func traceArgs(tracePath string) []string {
	return []string{
		"-scheme", "dynamic", "-nodes", "8", "-seed", "3", "-jobs", "120",
		"-spare", "-trace", tracePath,
	}
}

// canonicalTrace runs dvmpsim with -trace and returns the trace with every line's wall-clock field stripped
// (obs.Canonicalize) — the deterministic byte stream the golden file pins.
func canonicalTrace(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var sb strings.Builder
	if err := run(traceArgs(path), &sb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var canon bytes.Buffer
	if err := obs.Canonicalize(bytes.NewReader(raw), &canon); err != nil {
		t.Fatal(err)
	}
	return canon.Bytes()
}

// TestGoldenTrace pins the entire event stream of a fixed run. Any drift
// — a reordered event, a changed field, a different decision — fails
// byte-for-byte and must be reviewed (then blessed with
// `go test ./cmd/dvmpsim -run GoldenTrace -update`). Wall-clock fields
// are stripped first, so the comparison is exact, not fuzzy.
func TestGoldenTrace(t *testing.T) {
	got := canonicalTrace(t)

	goldenPath := filepath.Join("testdata", "golden_trace.jsonl")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl := bytes.Split(got, []byte("\n"))
		wl := bytes.Split(want, []byte("\n"))
		n := len(gl)
		if len(wl) < n {
			n = len(wl)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace drifted from golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace drifted from golden: %d lines vs %d", len(gl), len(wl))
	}
}

// TestTraceDeterminism asserts the core observability guarantee end to
// end: two dvmpsim runs with identical flags produce byte-identical
// traces once wall-clock fields are stripped.
func TestTraceDeterminism(t *testing.T) {
	a := canonicalTrace(t)
	b := canonicalTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two same-seed runs produced different canonical traces")
	}
	if len(a) == 0 {
		t.Fatal("canonical trace is empty")
	}
	// Wall-clock really was stripped: no line may still carry the field.
	if bytes.Contains(a, []byte(`"wall":`)) {
		t.Error("canonical trace still contains wall-clock fields")
	}
}
