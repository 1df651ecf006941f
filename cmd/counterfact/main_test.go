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

// recordRun produces a (run trace, decision log) pair through the sim
// API — cmd packages cannot import each other — using exactly the
// workload and fleet construction counterfact's flags reproduce:
// -scheme dynamic -nodes 8 -seed 3 -jobs 120 -spare.
func recordRun(t *testing.T) (tracePath, decPath string) {
	t.Helper()
	jobs := workload.MustGenerate(workload.DefaultWeekConfig(3))
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	workload.SortBySubmit(jobs)
	if len(jobs) > 120 {
		jobs = jobs[:120]
	}
	placer, err := policy.ByName("dynamic", 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath = filepath.Join(dir, "run.jsonl")
	decPath = filepath.Join(dir, "dec.jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	df, err := os.Create(decPath)
	if err != nil {
		t.Fatal(err)
	}
	tw, dw := bufio.NewWriter(tf), bufio.NewWriter(df)
	o := obs.NewTracing(tw)
	o.Decisions = obs.NewTracer(dw)
	sc := spare.DefaultConfig()
	cfg := sim.Config{
		DC:       cluster.TableIIFleetScaled(8),
		Placer:   policy.NewRecorder(placer, 0),
		Requests: workload.ToRequests(jobs),
		Spare:    &sc,
		Obs:      o,
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*bufio.Writer{tw, dw} {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []*os.File{tf, df} {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return tracePath, decPath
}

var matchingFlags = []string{"-scheme", "dynamic", "-nodes", "8", "-seed", "3", "-jobs", "120", "-spare"}

func canonical(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := obs.Canonicalize(bytes.NewReader(data), &c); err != nil {
		t.Fatal(err)
	}
	return c.Bytes()
}

// TestFaithfulReplayReproducesTrace is the replay gate: replaying a recorded log under the recording flags
// reproduces the original run trace byte-for-byte.
func TestFaithfulReplayReproducesTrace(t *testing.T) {
	tracePath, decPath := recordRun(t)
	replayTrace := filepath.Join(t.TempDir(), "replay.jsonl")
	var sb strings.Builder
	args := append([]string{"-decisions", decPath, "-trace", replayTrace}, matchingFlags...)
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "replay: faithful") {
		t.Fatalf("output missing faithful verdict:\n%s", sb.String())
	}
	if !bytes.Equal(canonical(t, tracePath), canonical(t, replayTrace)) {
		t.Fatal("faithful replay trace differs from the recorded run")
	}
}

// TestListAndWhatIf drives the counterfactual loop: -list surfaces the
// fork coordinates, -what-if forks there, and the forked trace differs
// from the original while the run still completes cleanly.
func TestListAndWhatIf(t *testing.T) {
	tracePath, decPath := recordRun(t)
	var sb strings.Builder
	if err := run([]string{"-decisions", decPath, "-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "placement decisions") || !strings.Contains(out, "alternatives:") {
		t.Fatalf("-list output incomplete:\n%s", out)
	}
	// Find a record with at least two alternatives to fork on.
	idx := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, ", 1: pm") {
			idx = strings.TrimPrefix(strings.Fields(line)[0], "#")
			break
		}
	}
	if idx == "" {
		t.Fatal("no placement with a second alternative in the log")
	}

	cfTrace := filepath.Join(t.TempDir(), "cf.jsonl")
	sb.Reset()
	args := append([]string{"-decisions", decPath, "-what-if", idx + ":1", "-trace", cfTrace}, matchingFlags...)
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "counterfactual: forked at decision #"+idx) {
		t.Fatalf("output missing fork verdict:\n%s", sb.String())
	}
	if bytes.Equal(canonical(t, tracePath), canonical(t, cfTrace)) {
		t.Fatal("counterfactual trace identical to the original: the fork did nothing")
	}
}

// TestMismatchedFlagsDiverge pins the strictness contract: replaying a
// log against the wrong workload must fail loudly, not quietly produce
// a different run.
func TestMismatchedFlagsDiverge(t *testing.T) {
	_, decPath := recordRun(t)
	var sb strings.Builder
	err := run([]string{"-decisions", decPath, "-scheme", "dynamic", "-nodes", "8", "-seed", "4", "-jobs", "120", "-spare"}, &sb)
	if err == nil {
		t.Fatal("wrong-seed replay completed without a divergence error")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Errorf("error %q does not name the divergence", err)
	}
}

// TestRunErrors table-tests the rejection paths, mirroring dvmpsim.
func TestRunErrors(t *testing.T) {
	_, decPath := recordRun(t)
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"missing decisions", []string{"-scheme", "dynamic"}, "-decisions"},
		{"missing log file", []string{"-decisions", "/nonexistent/dec.jsonl"}, "no such file"},
		{"bad flag", []string{"-badflag"}, "flag"},
		{"zero nodes", []string{"-decisions", decPath, "-nodes", "0"}, "-nodes"},
		{"negative jobs", []string{"-decisions", decPath, "-jobs", "-1"}, "-jobs"},
		{"removed sparse flag", []string{"-decisions", decPath, "-sparse", "64"}, "flag provided but not defined: -sparse"},
		{"removed cells flag", []string{"-decisions", decPath, "-cells", "4"}, "flag provided but not defined: -cells"},
		{"removed kernel-workers flag", []string{"-decisions", decPath, "-kernel-workers", "2"}, "flag provided but not defined: -kernel-workers"},
		{"unknown scheme", []string{"-decisions", decPath, "-scheme", "nope"}, "scheme"},
		{"what-if syntax", []string{"-decisions", decPath, "-what-if", "17"}, "IDX:ALT"},
		{"what-if index range", []string{"-decisions", decPath, "-what-if", "999999:0"}, "out of range"},
		{"what-if non-place record", []string{"-decisions", decPath, "-what-if", "0:0"}, "not a placement"},
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
