package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable2(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "table2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "25 fast + 75 slow = 100 nodes") {
		t.Errorf("table2 output wrong:\n%s", sb.String())
	}
}

func TestRunFig2(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "fig2", "-seed", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "4574") {
		t.Errorf("fig2 output wrong:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "fig99"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-zzz"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunFig3CSV runs the full week comparison once (~1 s) and holds its
// figure against the published one.
func TestRunFig3CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full week comparison skipped in -short mode")
	}
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-run", "fig3", "-out", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3_hourly_active_servers.csv"))
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(data), "\n", 2)[0]
	if head != "hour,first-fit,best-fit,dynamic" {
		t.Errorf("csv header = %q", head)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 169 { // header + 168 hours
		t.Errorf("csv rows = %d, want 169", lines)
	}
	// results/ is the reference run EXPERIMENTS.md quotes. A change that
	// moves the figure on purpose regenerates both (see EXPERIMENTS.md);
	// anything else must leave it byte for byte.
	blessed, err := os.ReadFile("../../results/fig3_hourly_active_servers.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(blessed) {
		t.Error("fig3 CSV differs from results/fig3_hourly_active_servers.csv: results/ is stale or the week comparison changed")
	}
}

// TestRunFig3Obs checks the -obs fan-out: every scheme of the parallel
// comparison must get its own non-empty trace and metrics file, and the
// per-run metrics must be isolated (each trace carries exactly one
// run_start, for its own scheme).
func TestRunFig3Obs(t *testing.T) {
	if testing.Short() {
		t.Skip("full week comparison skipped in -short mode")
	}
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-run", "fig3", "-obs", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"first-fit", "best-fit", "dynamic"} {
		trace, err := os.ReadFile(filepath.Join(dir, scheme+".trace.jsonl"))
		if err != nil {
			t.Fatalf("%s trace missing: %v", scheme, err)
		}
		if n := strings.Count(string(trace), `"event":"run_start"`); n != 1 {
			t.Errorf("%s trace has %d run_start events, want 1 (runs not isolated?)", scheme, n)
		}
		if !strings.Contains(string(trace), `"scheme":"`+scheme+`"`) {
			t.Errorf("%s trace does not name its own scheme", scheme)
		}
		metr, err := os.ReadFile(filepath.Join(dir, scheme+".metrics.json"))
		if err != nil {
			t.Fatalf("%s metrics missing: %v", scheme, err)
		}
		if !strings.Contains(string(metr), "sim.arrivals") {
			t.Errorf("%s metrics missing sim.arrivals:\n%s", scheme, metr)
		}
	}
	if !strings.Contains(sb.String(), "obs: ") {
		t.Errorf("stdout missing obs file listing:\n%s", sb.String())
	}
}

func TestRunFig5SVG(t *testing.T) {
	if testing.Short() {
		t.Skip("full week comparison skipped in -short mode")
	}
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-run", "fig5", "-out", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5_daily_power.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") || !strings.Contains(string(data), "polyline") {
		t.Error("svg output malformed")
	}
	if _, err := os.ReadFile(filepath.Join(dir, "results.json")); err != nil {
		t.Errorf("results.json missing: %v", err)
	}
}
