package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunErrors table-tests the CLI's rejection paths, mirroring
// dvmpsim's discipline: every invalid flag combination must fail with a
// non-nil one-line error naming the offending flag, before any simulation
// work starts.
func TestRunErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring the error must contain
	}{
		{"bad flag", []string{"-badflag"}, "flag"},
		{"zero reps", []string{"-reps", "0"}, "-reps"},
		{"negative reps", []string{"-reps", "-3"}, "-reps"},
		{"negative reps with seeds", []string{"-reps", "-3", "-seeds", "1,2"}, "-reps"},
		{"zero nodes", []string{"-nodes", "0"}, "-nodes"},
		{"negative nodes", []string{"-nodes", "-100"}, "-nodes"},
		{"negative jobs", []string{"-jobs", "-5"}, "-jobs"},
		{"zero workers", []string{"-workers", "0"}, "-workers"},
		{"negative workers", []string{"-workers", "-2"}, "-workers"},
		{"removed sparse flag", []string{"-sparse", "64"}, "flag provided but not defined: -sparse"},
		{"removed cells flag", []string{"-cells", "4"}, "flag provided but not defined: -cells"},
		{"removed kernel-workers flag", []string{"-kernel-workers", "2"}, "flag provided but not defined: -kernel-workers"},
		{"empty scheme entry", []string{"-schemes", "dynamic,,first-fit"}, "empty scheme"},
		{"only commas", []string{"-schemes", ","}, "empty scheme"},
		{"trailing comma", []string{"-schemes", "dynamic,"}, "empty scheme"},
		{"blank scheme entry", []string{"-schemes", "dynamic, ,first-fit"}, "empty scheme"},
		{"bad seed entry", []string{"-seeds", "1,x,3"}, "seed"},
		{"unknown scheme", []string{"-schemes", "nope", "-reps", "1", "-nodes", "8", "-jobs", "10"}, "scheme"},
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

// TestRunTournament pins the -tournament path: the default roster runs,
// the standings table lists every policy with a rank, and -o writes the
// full report JSON.
func TestRunTournament(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tournament.json")
	var sb strings.Builder
	err := run([]string{
		"-tournament", "-reps", "2", "-nodes", "8", "-jobs", "20", "-workers", "1", "-o", path,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"tournament:", "rank", "first-fit", "best-fit", "dynamic", "overbook", "dynamic-adaptive"} {
		if !strings.Contains(out, want) {
			t.Errorf("standings missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Scores", "TotalScore", "Sweep"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report JSON missing %q", want)
		}
	}
}

// TestRunSmallSweep exercises the happy path end to end on a tiny sweep.
func TestRunSmallSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-schemes", "first-fit", "-reps", "1", "-nodes", "8", "-jobs", "30", "-workers", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"1 runs", "first-fit"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
