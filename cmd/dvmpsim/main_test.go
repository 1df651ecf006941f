package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunSyntheticSmallFleet(t *testing.T) {
	var sb strings.Builder
	// A 16-node fleet keeps the test fast while exercising the full path.
	err := run([]string{"-scheme", "first-fit", "-nodes", "16", "-seed", "2", "-jobs", "300"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"300 jobs", "first-fit", "energy by class"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "series.csv")
	var sb strings.Builder
	if err := run([]string{"-scheme", "best-fit", "-nodes", "16", "-jobs", "300", "-csv", csv}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "hour,best-fit,best-fit") {
		t.Errorf("csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunVerbosePrintsSeries(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scheme", "worst-fit", "-nodes", "16", "-jobs", "300", "-v"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hour") {
		t.Error("verbose output missing series table")
	}
}

func TestRunSWFTrace(t *testing.T) {
	dir := t.TempDir()
	swf := filepath.Join(dir, "t.swf")
	content := "; test\n" +
		"1 0 0 600 1 -1 524288 1 600 -1 1 1 1 1 1 1 -1 -1\n" +
		"2 60 0 900 2 -1 524288 2 900 -1 1 1 1 1 1 1 -1 -1\n"
	if err := os.WriteFile(swf, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-swf", swf, "-scheme", "dynamic", "-nodes", "4"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2 jobs -> 3 single-core VM requests") {
		t.Errorf("trace parsing output wrong:\n%s", sb.String())
	}
}

// TestRunErrors table-tests the CLI's rejection paths: every invalid
// flag combination must fail with a non-nil (one-line) error before any
// simulation work starts, and the message must name what was wrong.
func TestRunErrors(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "not-a-checkpoint.json")
	if err := os.WriteFile(garbage, []byte(`{"magic":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring the error must contain
	}{
		{"unknown scheme", []string{"-scheme", "nope"}, "scheme"},
		{"missing swf", []string{"-swf", "/nonexistent/file.swf"}, "no such file"},
		{"unwritable trace", []string{"-scheme", "first-fit", "-nodes", "4", "-jobs", "10",
			"-trace", "/nonexistent/dir/run.jsonl"}, "no such file"},
		{"bad flag", []string{"-badflag"}, "flag"},
		{"bad audit mode", []string{"-audit", "nonsense"}, "audit"},
		{"negative jobs", []string{"-jobs", "-5"}, "-jobs"},
		{"zero nodes", []string{"-nodes", "0"}, "-nodes"},
		{"negative nodes", []string{"-nodes", "-16"}, "-nodes"},
		{"negative warm", []string{"-warm", "-1"}, "-warm"},
		{"negative checkpoint-every", []string{"-checkpoint-every", "-10"}, "-checkpoint-every"},
		{"negative stop-after", []string{"-stop-after", "-3"}, "-stop-after"},
		{"checkpoint-every without path", []string{"-checkpoint-every", "100"}, "-checkpoint"},
		{"stop-after without path", []string{"-stop-after", "100"}, "-checkpoint"},
		{"resume missing file", []string{"-nodes", "4", "-jobs", "10", "-resume", "/nonexistent/ck.json"}, "no such file"},
		{"resume non-checkpoint", []string{"-nodes", "4", "-jobs", "10", "-resume", garbage}, "magic"},
		{"removed sparse flag", []string{"-scheme", "dynamic", "-sparse", "64"}, "flag provided but not defined: -sparse"},
		{"removed cells flag", []string{"-scheme", "dynamic", "-cells", "4"}, "flag provided but not defined: -cells"},
		{"removed kernel-workers flag", []string{"-scheme", "dynamic", "-kernel-workers", "2"}, "flag provided but not defined: -kernel-workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(tc.args, &sb)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestTraceEquivalence is the differential gate over the command-line
// configurations that must not change a run: every row runs the reference
// scenario (unrecorded, uninterrupted) under another config and requires a canonically byte-identical run trace (wall-clock
// is the only field allowed to differ). A config is a list of legs, each a list of extra flags: one leg
// is a plain run; with several, every leg but the last stops at a
// checkpoint after 1500 events, the next resumes from it, and the legs'
// binary traces are concatenated as raw bytes before they are rendered.
func TestTraceEquivalence(t *testing.T) {
	base := []string{"-scheme", "dynamic", "-nodes", "16", "-seed", "1", "-jobs", "400", "-spare", "-timed"}
	type config [][]string
	dir := t.TempDir()
	decisions := filepath.Join(dir, "dec.jsonl")
	rows := []struct {
		name string
		cfg  config
	}{
		{"decisions", config{{"-decisions", decisions}}},
		{"resume", config{{}, {}}},
	}

	runs := 0
	trace := func(t *testing.T, cfg config) []byte {
		t.Helper()
		var raw, out bytes.Buffer
		ckpt := ""
		for i, leg := range cfg {
			runs++
			path := filepath.Join(dir, fmt.Sprintf("run%d.jsonl", runs))
			args := append(append(append([]string{}, base...), leg...), "-trace", path)
			if ckpt != "" {
				args = append(args, "-resume", ckpt)
			}
			if i < len(cfg)-1 {
				ckpt = filepath.Join(dir, fmt.Sprintf("ck%d.json", runs))
				args = append(args, "-checkpoint", ckpt, "-stop-after", "1500")
			}
			var sb strings.Builder
			if err := run(args, &sb); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if i > 0 && !strings.Contains(sb.String(), "resumed: ") {
				t.Fatalf("%v: output missing resume line:\n%s", args, sb.String())
			}
			if i < len(cfg)-1 && !strings.Contains(sb.String(), "stopping") {
				t.Fatalf("%v: run did not stop at the cutoff:\n%s", args, sb.String())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw.Write(data)
		}
		if err := obs.Canonicalize(&raw, &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	want := trace(t, config{{}})
	if len(want) == 0 {
		t.Fatal("reference run produced an empty trace")
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := trace(t, row.cfg); !bytes.Equal(got, want) {
				t.Fatalf("config %v changed the run trace", row.cfg)
			}
		})
	}
	// The decisions row must actually have recorded something.
	if info, err := os.Stat(decisions); err != nil || info.Size() == 0 {
		t.Fatalf("decision log missing or empty: %v", err)
	}
}

// TestDecisionLogCheckpointResume pins the decision stream's resume
// contract: stop a recorded run at a checkpoint, resume it recording to
// a second log, and require the two logs, concatenated as raw bytes, to
// render to the uninterrupted recording's canonical form (seq continuity
// comes from the checkpointed decision clock and recorder counters). The
// prefix rendered as JSONL, followed by the binary tail, reads the same.
func TestDecisionLogCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	prefix := filepath.Join(dir, "prefix.jsonl")
	tail := filepath.Join(dir, "tail.jsonl")
	ckpt := filepath.Join(dir, "ck.json")
	base := []string{"-scheme", "dynamic", "-nodes", "8", "-seed", "5", "-jobs", "80", "-spare", "-timed"}

	var sb strings.Builder
	if err := run(append(base, "-decisions", full), &sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run(append(base, "-decisions", prefix, "-checkpoint", ckpt, "-stop-after", "200"), &sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run(append(base, "-decisions", tail, "-resume", ckpt), &sb); err != nil {
		t.Fatal(err)
	}
	want := canonical(t, full)
	head, err := os.ReadFile(prefix)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		head []byte
	}{{"binary prefix", head}, {"JSONL prefix", rendered(t, prefix)}} {
		var got bytes.Buffer
		if err := obs.Canonicalize(bytes.NewReader(append(append([]byte(nil), c.head...), rest...)), &got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s and binary tail differ from the uninterrupted recording", c.name)
		}
	}
}

// TestRunCheckpointEvery exercises periodic checkpointing: the file must
// exist after the run and be restorable.
func TestRunCheckpointEvery(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	base := []string{"-scheme", "first-fit", "-nodes", "8", "-seed", "2", "-jobs", "60"}
	var sb strings.Builder
	if err := run(append(base, "-checkpoint", ckpt, "-checkpoint-every", "50"), &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("periodic checkpoint not written: %v", err)
	}
	sb.Reset()
	if err := run(append(base, "-resume", ckpt), &sb); err != nil {
		t.Fatalf("resume from periodic checkpoint: %v", err)
	}
	if !strings.Contains(sb.String(), "completed") && !strings.Contains(sb.String(), "scheme") {
		t.Fatalf("resumed run produced no summary:\n%s", sb.String())
	}
}

func TestRunTimedWarmAndTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	var sb strings.Builder
	err := run([]string{
		"-scheme", "dynamic", "-nodes", "16", "-jobs", "200",
		"-timed", "-warm", "4", "-trace", tracePath,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	data := rendered(t, tracePath)
	for _, event := range []string{"arrival", "place", "depart"} {
		if !strings.Contains(string(data), `"event":"`+event+`"`) {
			t.Errorf("run trace missing %q events", event)
		}
	}
}

func TestRunAuditFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scheme", "dynamic", "-nodes", "16", "-jobs", "200", "-audit", "event", "-spare"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "checks passed (mode event)") {
		t.Errorf("output missing audit summary:\n%s", out)
	}
	if err := run([]string{"-audit", "nonsense"}, &sb); err == nil {
		t.Error("bad audit mode accepted")
	}
}
