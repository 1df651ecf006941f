package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
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
	for _, which := range []string{"fig99", "seeds"} {
		t.Run(which, func(t *testing.T) {
			var sb strings.Builder
			err := run([]string{"-run", which}, &sb)
			if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
				t.Errorf("-run %s: error %v, want unknown experiment", which, err)
			}
		})
	}
}

// TestRunBadFlag: the flags that moved to other commands (-obs to
// dvmpsim -trace -metrics, -seeds to sweep) are rejected like any
// unknown one.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{{"-zzz"}, {"-obs", t.TempDir()}, {"-seeds", "5"}} {
		t.Run(args[0], func(t *testing.T) {
			var sb strings.Builder
			err := run(args, &sb)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
				t.Errorf("%v: error %v, want flag provided but not defined", args, err)
			}
		})
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

// TestAblationDigest pins the ablation studies' report by its FNV-64a at
// seeds 1 and 7: over the whole week, `experiments -run ablation`'s
// stdout; under the race detector, a prefix of the week with pins of its
// own (ablationPins). The factor ablation runs the factor lists other than
// the paper's four (E-A1a's dyn-no-* rows), and the report covers the
// threshold, round, spare-alpha, baseline, migration-model and packing
// studies. A changed digest means a changed line of the report; review the
// report, then bless the new value.
func TestAblationDigest(t *testing.T) {
	for _, pin := range ablationPins {
		t.Run(fmt.Sprintf("seed %d", pin.seed), func(t *testing.T) {
			opts := exp.DefaultOptions(pin.seed)
			_, opts.Trace = exp.WeekTrace(pin.seed)
			if ablationRequests > 0 {
				opts.Trace = opts.Trace[:ablationRequests]
			}
			h := fnv.New64a()
			if err := ablation(h, opts, nil); err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); got != pin.digest {
				t.Errorf("report digest %#016x, want %#016x", got, pin.digest)
			}
		})
	}
}
