package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fixture is the 8-PM run the replay tests record and replay;
// matchingFlags is it under the dynamic scheme with spares.
var (
	fixture       = []string{"-nodes", "8", "-seed", "3", "-jobs", "120"}
	matchingFlags = append([]string{"-scheme", "dynamic", "-spare"}, fixture...)
)

// recordRun runs dvmpsim under flags with -trace and -decisions and
// returns the (run trace, decision log) pair.
func recordRun(t *testing.T, flags []string) (tracePath, decPath string) {
	t.Helper()
	dir := t.TempDir()
	tracePath = filepath.Join(dir, "run.jsonl")
	decPath = filepath.Join(dir, "dec.jsonl")
	if err := run(append(append([]string{}, flags...), "-trace", tracePath, "-decisions", decPath), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	return tracePath, decPath
}

// canonical is the file at path rendered with its wall clocks stripped.
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

// rendered is the file at path rendered as JSONL.
func rendered(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := obs.Render(bytes.NewReader(data), &c); err != nil {
		t.Fatal(err)
	}
	return c.Bytes()
}

// TestFaithfulReplayReproducesTrace is the replay gate: for every run kind
// `make same` compares, plus the adaptive dynamic scheme, replaying a
// recorded log under the recording flags reproduces the original run
// trace byte-for-byte, with every event audited. The logs are the binary
// ones a recording run writes; the last row replays
// testdata/golden_decisions.jsonl, the golden fixture's log as an earlier
// build wrote it in JSONL, onto the golden trace.
func TestFaithfulReplayReproducesTrace(t *testing.T) {
	t.Run("checked-in JSONL log", func(t *testing.T) {
		replayTrace := filepath.Join(t.TempDir(), "replay.jsonl")
		var sb strings.Builder
		args := append(append([]string{}, matchingFlags...), "-replay", filepath.Join("testdata", "golden_decisions.jsonl"),
			"-audit", "event", "-trace", replayTrace)
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "replay: faithful") {
			t.Fatalf("output missing the faithful verdict:\n%s", sb.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden_trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical(t, replayTrace), want) {
			t.Fatal("replaying the checked-in JSONL log does not reproduce the golden trace")
		}
	})
	for _, flags := range []string{
		"-spare", "-spare -timed", "-scheme first-fit", "-scheme best-fit -spare",
		"-scheme worst-fit", "-scheme random", "-scheme threshold", "-scheme overbook",
		"-scheme dynamic-adaptive -spare",
	} {
		t.Run(flags, func(t *testing.T) {
			args := append(strings.Fields(flags), fixture...)
			tracePath, decPath := recordRun(t, args)
			replayTrace := filepath.Join(t.TempDir(), "replay.jsonl")
			var sb strings.Builder
			if err := run(append(args, "-replay", decPath, "-audit", "event", "-trace", replayTrace), &sb); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"replay: faithful", "checks passed (mode event)"} {
				if !strings.Contains(sb.String(), want) {
					t.Fatalf("output missing %q:\n%s", want, sb.String())
				}
			}
			if !bytes.Equal(canonical(t, tracePath), canonical(t, replayTrace)) {
				t.Fatal("faithful replay trace differs from the recorded run")
			}
		})
	}
}

// TestListAndWhatIf drives the counterfactual loop: -list surfaces the
// fork coordinates, -what-if forks there, and the forked trace differs
// from the original while the run still completes cleanly under the
// event audit.
func TestListAndWhatIf(t *testing.T) {
	tracePath, decPath := recordRun(t, matchingFlags)
	var sb strings.Builder
	if err := run([]string{"-replay", decPath, "-list"}, &sb); err != nil {
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
	args := append([]string{"-replay", decPath, "-what-if", idx + ":1", "-audit", "event", "-trace", cfTrace}, matchingFlags...)
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counterfactual: forked at decision #" + idx, "checks passed (mode event)"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
	if bytes.Equal(canonical(t, tracePath), canonical(t, cfTrace)) {
		t.Fatal("counterfactual trace identical to the original: the fork did nothing")
	}
}

// TestMismatchedFlagsDiverge pins the strictness contract: replaying a
// log against the wrong workload must fail loudly, not quietly produce
// a different run.
func TestMismatchedFlagsDiverge(t *testing.T) {
	_, decPath := recordRun(t, matchingFlags)
	var sb strings.Builder
	err := run([]string{"-replay", decPath, "-scheme", "dynamic", "-nodes", "8", "-seed", "4", "-jobs", "120", "-spare"}, &sb)
	if err == nil {
		t.Fatal("wrong-seed replay completed without a divergence error")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Errorf("error %q does not name the divergence", err)
	}
}

// TestReplayRunErrors table-tests the rejection paths of a replay run:
// the replay flags without a log, the flags a replay cannot combine with,
// a bad or missing log or fork coordinate, and the plain-run rejections
// (bad flag, bad fleet, removed flags, unknown fallback scheme), which
// must hold with -replay too. The rows that name an output file point it
// into fresh, which must stay empty: a rejected combination creates no
// file.
func TestReplayRunErrors(t *testing.T) {
	_, decPath := recordRun(t, matchingFlags)
	fresh := t.TempDir()
	ckpt := filepath.Join(fresh, "ck.json")
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"what-if without replay", []string{"-what-if", "1:0"}, "-replay"},
		{"list without replay", []string{"-list"}, "-replay"},
		{"replay with checkpoint", []string{"-replay", decPath, "-checkpoint", ckpt, "-stop-after", "100"}, "-checkpoint"},
		{"replay with resume", []string{"-replay", decPath, "-resume", ckpt}, "-resume"},
		{"replay with decisions", []string{"-replay", decPath, "-decisions", filepath.Join(fresh, "dec.jsonl")}, "-decisions"},
		{"missing log file", []string{"-replay", "/nonexistent/dec.jsonl"}, "no such file"},
		{"bad flag", []string{"-replay", decPath, "-badflag"}, "flag"},
		{"zero nodes", []string{"-replay", decPath, "-nodes", "0"}, "-nodes"},
		{"negative jobs", []string{"-replay", decPath, "-jobs", "-1"}, "-jobs"},
		{"removed sparse flag", []string{"-replay", decPath, "-sparse", "64"}, "flag provided but not defined: -sparse"},
		{"removed cells flag", []string{"-replay", decPath, "-cells", "4"}, "flag provided but not defined: -cells"},
		{"removed kernel-workers flag", []string{"-replay", decPath, "-kernel-workers", "2"}, "flag provided but not defined: -kernel-workers"},
		{"unknown scheme", []string{"-replay", decPath, "-scheme", "nope"}, "scheme"},
		{"what-if syntax", []string{"-replay", decPath, "-what-if", "17"}, "IDX:ALT"},
		{"what-if index range", []string{"-replay", decPath, "-what-if", "999999:0"}, "out of range"},
		{"what-if non-place record", []string{"-replay", decPath, "-what-if", "0:0"}, "not a placement"},
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
	if files, err := os.ReadDir(fresh); err != nil || len(files) > 0 {
		t.Errorf("rejected runs left files behind: %v %v", files, err)
	}
}
