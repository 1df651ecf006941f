package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// definition is BENCHMARK.json as the acceptance driver reads it.
type definition struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadDefinition(t *testing.T) definition {
	t.Helper()
	var d definition
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all five workloads at -smoke size with tracing on and
// checks the benchmark against its own definition: every metric
// BENCHMARK.json names is emitted once per workload under that unit, the
// verification passes, and the span tree accounts for the run.
func TestSmoke(t *testing.T) {
	d := loadDefinition(t)
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}

	out := t.TempDir()
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, d.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			b := measure(w, options{seed: 1, smoke: true, trace: true, outDir: out})
			res := b.res
			if !res.Correct || res.Failed != 0 || res.Ops == 0 {
				t.Fatalf("correct=%v failed=%d ops=%d problems=%v", res.Correct, res.Failed, res.Ops, res.Problems)
			}

			want := map[string]string{}
			for _, m := range d.EndToEnd {
				want[m.Name] = m.Unit
			}
			checkCatalogue(t, "end-to-end", want, res.EndToEnd)
			for name, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}
			want = map[string]string{}
			for _, m := range d.PerLayer {
				want[m.Name] = m.Unit
			}
			checkCatalogue(t, "per-layer", want, res.PerLayer)

			if _, err := os.Stat(filepath.Join(out, w.name+".spans.jsonl")); err != nil {
				t.Error(err)
			}
			if w.sweep {
				if got := res.PerLayer["exp.runs"].Value; got != 12 {
					t.Errorf("exp.runs = %v, want 12", got)
				}
				return
			}
			// Self times telescope to the root span.
			st := &b.ld.spans
			var self int64
			for _, s := range st.self {
				self += s
			}
			if root := st.total[spanRun]; !within(float64(self), float64(root), 0.01) {
				t.Errorf("self times sum to %d ns, root span is %d ns", self, root)
			}
			pl := func(name string) float64 { return res.PerLayer[name].Value }
			parts := pl("policy.place_s") + pl("policy.consolidate_s") + pl("policy.spare_target_s") + pl("sim.self_s")
			if !within(parts, pl("sim.step_s"), 0.01) {
				t.Errorf("policy + sim.self = %v s, sim.step_s = %v s", parts, pl("sim.step_s"))
			}
			if w.scheme == "first-fit" && pl("core.kernel_build_calls") != 0 {
				t.Errorf("core.kernel_build_calls = %v on a static scheme", pl("core.kernel_build_calls"))
			}
			if w.observed && (pl("obs.trace_events") == 0 || pl("obs.decision_records") == 0) {
				t.Errorf("observed workload wrote %v trace events, %v decision records", pl("obs.trace_events"), pl("obs.decision_records"))
			}
		})
	}
}

func within(got, want, tol float64) bool {
	return got >= want*(1-tol) && got <= want*(1+tol)
}

func checkCatalogue(t *testing.T, kind string, want map[string]string, got map[string]metric) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !nameRE.MatchString(name):
			t.Errorf("%s metric name %q", kind, name)
		case !ok:
			t.Errorf("%s metric %s named in BENCHMARK.json is not emitted", kind, name)
		case m.Unit != unit || unit == "":
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %s is emitted but not named in BENCHMARK.json", kind, name)
		}
	}
}

// TestTimingWrapperLeavesFingerprint pins the traced run's premise: the
// span-recording policy wrapper changes what is measured, never what runs.
func TestTimingWrapperLeavesFingerprint(t *testing.T) {
	w, _ := specByName("paper-week-100-observed")
	plain, err := w.once(3, true, variant{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := w.once(3, true, variant{rec: newRecorder(plain.events)})
	if err != nil {
		t.Fatal(err)
	}
	if plain.fp != traced.fp {
		t.Errorf("fingerprint %016x untraced, %016x traced", plain.fp, traced.fp)
	}
	if traced.timed.rec.stats().calls[spanConsolidate] == 0 {
		t.Error("traced run recorded no policy.consolidate span")
	}
}

// TestRunContract drives the command line the way the acceptance driver
// does and checks the last line of standard output.
func TestRunContract(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		err := run([]string{"--workload", "static-fleet-1k", "--seed", "7", "--seconds", "1", "--trace", trace, "-smoke", "-out", t.TempDir()}, &out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[k]; !ok {
				t.Errorf("--trace %s: last line lacks %q", trace, k)
			}
		}
		if len(line) != 4 {
			t.Errorf("--trace %s: last line has %d keys, want 4", trace, len(line))
		}
		var metrics map[string]json.RawMessage
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		_, hasE2E := metrics["wall_s"]
		_, hasLayer := metrics["sim.events"]
		if hasE2E == (trace == "1") || hasLayer == (trace == "0") {
			t.Errorf("--trace %s: wall_s present=%v, sim.events present=%v", trace, hasE2E, hasLayer)
		}
	}
}

// TestCompare checks -compare's verdicts on doctored result files, and
// that it refuses result sets it cannot vouch for.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, doctor func(*results)) string {
		e2e := map[string]metric{}
		for _, n := range []string{"wall_s", "cpu_s", "setup_s", "alloc_mb", "allocs_k", "energy_kwh", "served_pct"} {
			e2e[n] = metric{Value: 100}
		}
		r := &results{Seed: 1, Workloads: []*result{{
			Workload: "paper-week-100", Correct: true, EndToEnd: e2e,
			PerLayer: map[string]metric{
				"peak_rss_mb": {Value: 100}, "queued_pct": {Value: 4}, "migrations": {Value: 100},
				"bench.wall_iqr_ratio": {Value: 0.02}, "bench.setup_iqr_ratio": {Value: 0.02},
			},
		}}}
		doctor(r)
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	set := func(kind, name string, v float64) func(*results) {
		return func(r *results) {
			m := r.Workloads[0].EndToEnd
			if kind == "layer" {
				m = r.Workloads[0].PerLayer
			}
			m[name] = metric{Value: v}
		}
	}
	base := mk("a.json", func(*results) {})
	for _, c := range []struct {
		name    string
		doctor  func(*results)
		wantErr bool
		wantOut string
	}{
		{"same", func(*results) {}, false, "ok (identical)"},
		{"faster", set("e2e", "wall_s", 50), false, "ok"},
		{"slower", set("e2e", "wall_s", 112), true, "REGRESSION"},
		{"noisy", func(r *results) {
			set("e2e", "wall_s", 112)(r)
			set("layer", "bench.wall_iqr_ratio", 0.3)(r)
		}, false, "unresolved"},
		{"one-cycle", func(r *results) {
			set("e2e", "wall_s", 112)(r)
			set("layer", "bench.wall_iqr_ratio", 0)(r)
		}, false, "not measured"},
		{"hotter", set("e2e", "energy_kwh", 101), true, "REGRESSION"},
		{"queueing", set("layer", "queued_pct", 4.2), true, "REGRESSION"},
		{"queueing-within", set("layer", "queued_pct", 4.05), false, "ok"},
		{"incorrect", func(r *results) { r.Workloads[0].Correct = false }, true, ""},
		{"failing", func(r *results) { r.Workloads[0].Failed = 3 }, true, ""},
		{"incomplete", func(r *results) { delete(r.Workloads[0].PerLayer, "migrations") }, true, ""},
		{"other-seed", func(r *results) { r.Seed = 2 }, true, ""},
		{"empty", func(r *results) { r.Workloads = nil }, true, ""},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, []string{base}, []string{mk(c.name+".json", c.doctor)})
		if (err != nil) != c.wantErr || !strings.Contains(out.String(), c.wantOut) {
			t.Errorf("%s: err=%v, output:\n%s", c.name, err, out.String())
		}
	}
	// Several sets a side: the medians are compared, and a host time that
	// moves between one side's sets is unresolved however steady each set.
	slow, plateau := mk("slow.json", set("e2e", "wall_s", 112)), mk("plateau.json", set("e2e", "wall_s", 130))
	for _, c := range []struct {
		b       []string
		wantErr bool
		wantOut string
	}{
		{[]string{slow, slow, slow}, true, "REGRESSION"},
		{[]string{base, plateau, base}, false, "unresolved"},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, []string{base, base, base}, c.b)
		if (err != nil) != c.wantErr || !strings.Contains(out.String(), c.wantOut) {
			t.Errorf("%v: err=%v, output:\n%s", c.b, err, out.String())
		}
	}
	var out bytes.Buffer
	// All identical but peak RSS, whose spread a single set cannot know.
	if err := compareFiles(&out, []string{base}, []string{base}); err != nil || strings.Count(out.String(), "ok (identical)") != len(tolerances)-1 {
		t.Errorf("a file against itself: err=%v, output:\n%s", err, out.String())
	}
}
