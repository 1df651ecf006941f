package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
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
		{"repeated scheme", []string{"-schemes", "first-fit,dynamic,first-fit"}, `repeated scheme "first-fit"`},
		{"repeated seed", []string{"-seeds", "1,2,1"}, "repeated seed 1"},
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

// TestRunWinLines: after the aggregates, a sweep with dynamic in the
// roster says on how many seeds dynamic used less week energy than each
// other scheme (the E-R1 check), counted here again from the -o report;
// a sweep without dynamic prints none.
func TestRunWinLines(t *testing.T) {
	for _, tc := range []struct {
		schemes string
		lines   int
	}{
		{"first-fit,dynamic,best-fit", 2},
		{"first-fit,best-fit", 0},
	} {
		t.Run(tc.schemes, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.json")
			var sb strings.Builder
			err := run([]string{"-schemes", tc.schemes, "-reps", "3", "-nodes", "8", "-jobs", "30", "-workers", "1", "-o", path}, &sb)
			if err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if got := strings.Count(out, "dynamic beats "); got != tc.lines {
				t.Errorf("%d win lines, want %d:\n%s", got, tc.lines, out)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rep exp.SweepReport
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			energy := map[string]map[int64]float64{}
			for _, r := range rep.Runs {
				if energy[r.Scheme] == nil {
					energy[r.Scheme] = map[int64]float64{}
				}
				energy[r.Scheme][r.Seed] = r.WeekEnergyKWh
			}
			if energy["dynamic"] == nil {
				return
			}
			for _, scheme := range []string{"first-fit", "best-fit"} {
				wins := 0
				for _, seed := range rep.Seeds {
					if energy["dynamic"][seed] < energy[scheme][seed] {
						wins++
					}
				}
				want := fmt.Sprintf("dynamic beats %-10s on %d/3 seeds\n", scheme, wins)
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}
