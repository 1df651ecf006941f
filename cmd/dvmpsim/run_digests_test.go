package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// runDigestsPath holds TestRunDigests' pins, one entry a row;
// `go test ./cmd/dvmpsim -run TestRunDigests -update` rewrites the entries
// of the rows it ran.
var runDigestsPath = filepath.Join("testdata", "run_digests.json")

// runKinds are the eight ways the week is run: the dynamic scheme with
// spares, with instant and with timed migrations (the runs whose cutovers
// are events of their own), the static baselines and the other fit-family
// schemes, which no golden fixture pins.
//
// The seed-1 `-spare` row is the seed week of the lazy rounds
// (internal/core/bound.go): no kernel_build phase, every pass opening with
// one bound sweep, and the exact group scans staying with the columns
// whose key could contend for a round. A column's key is its cell's bound
// times its own largest p_vir, so 4,090 passes keep a column in their first
// sweep (algo1_rounds calls; 4,991 when the key had no p_vir) and 5,325 of
// their 9,366 rounds keep any: 5,276 move (in 4,055 passes) and 49 end the
// pass on a column that cannot. Each of those rounds scans its top key
// first — 5,325 scans — and then the 2,825 columns whose key beat the
// running best: core.exact_column_scans 8,150, where the keys without
// p_vir read 55,422, and the built engines made 1,794,707 column
// derivations. On the same keys the sorted walk the rounds used to take
// scans 8,149: the one-pass choice costs one scan in the week, the key all
// the rest of the drop. 13,991 of the 18,046 passes are proven empty by
// their sweep. The sweeps bound (shape, host) cells of the roster's buckets
// (internal/core/roster.go), not columns — core.bound_cells 167,523 for the
// week against some 4.5 M column bounds — and the roster re-reads only the
// PMs the change feed names: one per arrival or departure PM, two per
// move, one per power-state change between passes, none otherwise. 369 of
// the 29,602 re-reads are state changes that leave Active() as it was (184
// booting→on, 157 shutting-down→off, 28 whole power cycles); its 14,300
// inserts and drops are the 9,024 arrivals plus the 5,276 moves.
var runKinds = [][]string{
	{"-spare"},
	{"-spare", "-timed"},
	{"-scheme", "first-fit"},
	{"-scheme", "best-fit", "-spare"},
	{"-scheme", "worst-fit"},
	{"-scheme", "random"},
	{"-scheme", "threshold"},
	{"-scheme", "overbook"},
}

// runPins is what a row pins of its run: the FNV-64a of its canonical run
// trace and decision log, and every value -metrics writes but the phases'
// wall-clock total_ns, by name (flatMetrics).
type runPins struct {
	Trace     string                 `json:"trace"`
	Decisions string                 `json:"decisions"`
	Metrics   map[string]json.Number `json:"metrics"`
}

// TestRunDigests pins what every run of the paper's evaluation writes:
// each of runKinds on the week at seeds 1 and 7, and the 1k-PM week
// (`tracegen -jobs 45740`, written as SWF, then `-nodes 1000 -spare`).
// Under the race detector each row runs a prefix of its workload
// (jobScope), pinned in rows of its own. A moved pin fails its row by name
// and names the digest or metric that moved; a change that moves one on
// purpose re-blesses with -update and shows as a diff of run_digests.json.
func TestRunDigests(t *testing.T) {
	type row struct {
		name string
		args []string
	}
	var rows []row
	for _, seed := range []string{"1", "7"} {
		for _, kind := range runKinds {
			rows = append(rows, row{"seed " + seed + " " + strings.Join(kind, " "), append(slices.Clone(kind), "-seed", seed)})
		}
	}
	swf := filepath.Join(t.TempDir(), "week1k.swf")
	writeScaledWeek(t, swf, 45740)
	rows = append(rows, row{"1k-PM week", []string{"-swf", swf, "-nodes", "1000", "-spare"}})
	if jobScope > 0 {
		for i := range rows {
			rows[i].name += fmt.Sprintf(", first %d jobs", jobScope)
			rows[i].args = append(rows[i].args, "-jobs", strconv.Itoa(jobScope))
		}
	}

	pins := map[string]runPins{}
	if data, err := os.ReadFile(runDigestsPath); err == nil {
		if err := json.Unmarshal(data, &pins); err != nil {
			t.Fatal(err)
		}
	} else if !*update {
		t.Fatalf("missing pins (run with -update): %v", err)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := pinRun(t, r.args)
			if *update {
				pins[r.name] = got
				return
			}
			want, ok := pins[r.name]
			if !ok {
				t.Fatalf("no pins for %q in %s (run with -update)", r.name, runDigestsPath)
			}
			if got.Trace != want.Trace {
				t.Errorf("run trace digest %s, want %s", got.Trace, want.Trace)
			}
			if got.Decisions != want.Decisions {
				t.Errorf("decision log digest %s, want %s", got.Decisions, want.Decisions)
			}
			names := make([]string, 0, len(got.Metrics)+len(want.Metrics))
			for name := range got.Metrics {
				names = append(names, name)
			}
			for name := range want.Metrics {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range slices.Compact(names) {
				g, gok := got.Metrics[name]
				w, wok := want.Metrics[name]
				switch {
				case !wok:
					t.Errorf("metric %s = %s, not pinned", name, g)
				case !gok:
					t.Errorf("metric %s absent, want %s", name, w)
				case g != w:
					t.Errorf("metric %s = %s, want %s", name, g, w)
				}
			}
		})
	}
	if *update {
		data, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pins updated: %s", runDigestsPath)
	}
}

// pinRun runs dvmpsim under args with -trace, -decisions and -metrics and
// returns what TestRunDigests pins of it.
func pinRun(t *testing.T, args []string) runPins {
	t.Helper()
	dir := t.TempDir()
	tracePath, decPath, metricsPath := filepath.Join(dir, "run.trace"), filepath.Join(dir, "dec.log"), filepath.Join(dir, "run.json")
	args = append(slices.Clone(args), "-trace", tracePath, "-decisions", decPath, "-metrics", metricsPath)
	if err := run(args, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	p := runPins{
		Trace:     fmt.Sprintf("%#016x", canonicalDigest(t, tracePath)),
		Decisions: fmt.Sprintf("%#016x", canonicalDigest(t, decPath)),
		Metrics:   map[string]json.Number{},
	}
	flatMetrics(t, "", doc, p.Metrics)
	return p
}

// flatMetrics adds every number of the metrics JSON v to out under its
// path, the keys and indices joined by "/" ("counters/sim.migrations",
// "histograms/sim.wait_seconds/counts/0"), leaving out the phases'
// wall-clock total_ns.
func flatMetrics(t *testing.T, path string, v any, out map[string]json.Number) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			if k != "total_ns" {
				flatMetrics(t, strings.TrimPrefix(path+"/"+k, "/"), e, out)
			}
		}
	case []any:
		for i, e := range v {
			flatMetrics(t, path+"/"+strconv.Itoa(i), e, out)
		}
	case json.Number:
		out[path] = v
	default:
		t.Fatalf("metrics %s: %v is not a number, an object or a list", path, v)
	}
}

// writeScaledWeek writes to path, as SWF, what `tracegen -jobs jobs`
// writes.
func writeScaledWeek(t *testing.T, path string, jobs int) {
	t.Helper()
	gen, err := workload.Generate(workload.ScaledWeekConfig(1, 7, jobs))
	if err != nil {
		t.Fatal(err)
	}
	var swf bytes.Buffer
	if err := workload.WriteSWF(&swf, gen, "1k-PM week"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, swf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
