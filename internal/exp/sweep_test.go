package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// sweepTrace derives a seed-dependent variant of the small test workload,
// so sweep replications genuinely differ per seed (runtimes and spacing
// shift with the seed) while staying fast and deterministic.
func sweepTrace(seed int64) []workload.Request {
	base := smallTrace()
	for i := range base {
		base[i].Submit += float64(seed%7) * 13
		if (int64(i)+seed)%4 == 0 {
			base[i].RunTime *= 1.5
			base[i].EstimatedRunTime *= 1.5
		}
	}
	return base
}

func smallSweepOptions() SweepOptions {
	return SweepOptions{
		Base: Options{
			SpareForDynamic: true,
			Fleet:           smallFleet,
			TraceGen:        sweepTrace,
		},
		Schemes: []string{"first-fit", "random", "dynamic"},
		Seeds:   []int64{1, 2, 3, 4, 5},
	}
}

// TestSweepDeterministicAcrossWorkers is the merge contract: the same
// sweep at 1, 2, and 7 workers must serialize to byte-identical reports —
// scheduling and completion order must leave no trace in the output.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 7} {
		opts := smallSweepOptions()
		opts.Workers = workers
		report, err := RunSweep(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d report differs from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestSweepMatchesSequentialRuns checks each cell of the cross product
// against a direct RunScheme call with the same seed and trace: the sweep
// machinery must add scheduling, not change results.
func TestSweepMatchesSequentialRuns(t *testing.T) {
	opts := smallSweepOptions()
	opts.Workers = 3
	report, err := RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != len(opts.Schemes)*len(opts.Seeds) {
		t.Fatalf("got %d runs, want %d", len(report.Runs), len(opts.Schemes)*len(opts.Seeds))
	}
	for i, run := range report.Runs {
		si, vi := i/len(opts.Seeds), i%len(opts.Seeds)
		if run.Scheme != opts.Schemes[si] || run.Seed != opts.Seeds[vi] {
			t.Fatalf("run %d is (%s, %d), want (%s, %d)",
				i, run.Scheme, run.Seed, opts.Schemes[si], opts.Seeds[vi])
		}
		ro := opts.Base
		ro.Seed = run.Seed
		ro.TraceGen = nil
		direct, err := RunScheme(run.Scheme, sweepTrace(run.Seed), ro)
		if err != nil {
			t.Fatal(err)
		}
		if run.WeekEnergyKWh != direct.WeekEnergyKWh {
			t.Errorf("(%s, %d): sweep energy %g != direct %g",
				run.Scheme, run.Seed, run.WeekEnergyKWh, direct.WeekEnergyKWh)
		}
		if run.Migrations != direct.Summary.Migrations {
			t.Errorf("(%s, %d): sweep migrations %d != direct %d",
				run.Scheme, run.Seed, run.Migrations, direct.Summary.Migrations)
		}
	}
	if len(report.Aggregates) != len(opts.Schemes) {
		t.Fatalf("got %d aggregates, want %d", len(report.Aggregates), len(opts.Schemes))
	}
	for _, agg := range report.Aggregates {
		if agg.Runs != len(opts.Seeds) {
			t.Errorf("%s aggregate covers %d runs, want %d", agg.Scheme, agg.Runs, len(opts.Seeds))
		}
		if agg.WeekEnergyKWh.Min > agg.WeekEnergyKWh.Mean || agg.WeekEnergyKWh.Mean > agg.WeekEnergyKWh.Max {
			t.Errorf("%s energy moments inconsistent: %+v", agg.Scheme, agg.WeekEnergyKWh)
		}
	}
}

// TestSweepErrorsListEveryFailure pins the error contract: every failed
// (scheme, seed) pair appears in the joined error, not just the first.
func TestSweepErrorsListEveryFailure(t *testing.T) {
	opts := smallSweepOptions()
	opts.Schemes = []string{"first-fit", "no-such-scheme"}
	opts.Seeds = []int64{1, 2, 3}
	opts.Workers = 2
	_, err := RunSweep(opts)
	if err == nil {
		t.Fatal("sweep with a bogus scheme succeeded")
	}
	for _, seed := range opts.Seeds {
		want := fmt.Sprintf("(scheme no-such-scheme, seed %d)", seed)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %s:\n%v", want, err)
		}
	}
	if strings.Contains(err.Error(), "scheme first-fit") {
		t.Errorf("error blames the healthy scheme:\n%v", err)
	}
}

// TestSweepObserverPerRunIsolation proves the sweep hands every
// (scheme, seed) run its own observer — replications of one scheme run
// concurrently, so scheme-keyed sharing would pool their counters.
func TestSweepObserverPerRunIsolation(t *testing.T) {
	opts := smallSweepOptions()
	opts.Workers = 4
	var mu sync.Mutex
	handed := map[string]*obs.Observer{}
	opts.Observe = func(scheme string, seed int64) *obs.Observer {
		o := obs.New()
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprintf("%s@%d", scheme, seed)
		if _, dup := handed[key]; dup {
			t.Errorf("Observe called twice for %s", key)
		}
		handed[key] = o
		return o
	}
	if _, err := RunSweep(opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := len(opts.Schemes) * len(opts.Seeds); len(handed) != want {
		t.Fatalf("Observe called for %d runs, want %d", len(handed), want)
	}
	seen := map[*obs.Observer]string{}
	for key, o := range handed {
		if prev, dup := seen[o]; dup {
			t.Fatalf("runs %s and %s share an observer", prev, key)
		}
		seen[o] = key
	}
}

// inflight is a trace sink that counts the runs between their run_start
// and run_end events, across every tracer writing to it. A tracer writes
// one whole record a Write, so each renders alone.
type inflight struct {
	mu       sync.Mutex
	cur, max int
}

func (g *inflight) Write(p []byte) (int, error) {
	var line bytes.Buffer
	if err := obs.Render(bytes.NewReader(p), &line); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch p := line.Bytes(); {
	case bytes.Contains(p, []byte(`"event":"run_start"`)):
		if g.cur++; g.cur > g.max {
			g.max = g.cur
		}
	case bytes.Contains(p, []byte(`"event":"run_end"`)):
		g.cur--
	}
	return len(p), nil
}

// robustnessSweep is the robustness study (E-R1) as cmd/sweep runs it: the
// given schemes over seeds 1..n, each seed's trace drawn from TraceGen.
func robustnessSweep(n int64, schemes ...string) SweepOptions {
	opts := SweepOptions{Base: smallOptions(), Schemes: schemes}
	opts.Base.Trace = nil // a fixed trace would stand in for the per-seed ones
	opts.Base.TraceGen = sweepTrace
	for seed := int64(1); seed <= n; seed++ {
		opts.Seeds = append(opts.Seeds, seed)
	}
	return opts
}

// TestRobustnessStudyJoinsAllErrors: a study with a bad scheme names that
// scheme at every seed in its joined error, and never the healthy one.
func TestRobustnessStudyJoinsAllErrors(t *testing.T) {
	opts := robustnessSweep(2, "first-fit", "no-such-scheme")
	_, err := RunSweep(opts)
	if err == nil {
		t.Fatal("study with a bogus scheme succeeded")
	}
	for _, seed := range opts.Seeds {
		want := fmt.Sprintf("(scheme no-such-scheme, seed %d)", seed)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %s:\n%v", want, err)
		}
	}
	if strings.Contains(err.Error(), "scheme first-fit") {
		t.Errorf("error blames the healthy scheme:\n%v", err)
	}
}

// TestRobustnessStudyObserverPerSeed: the study asks for one observer per
// (scheme, seed) run, once each, at the default worker count.
func TestRobustnessStudyObserverPerSeed(t *testing.T) {
	const n = 3
	opts := robustnessSweep(n, "first-fit", "dynamic")
	type key struct {
		scheme string
		seed   int64
	}
	var mu sync.Mutex
	handed := map[key]*obs.Observer{}
	opts.Observe = func(scheme string, seed int64) *obs.Observer {
		o := obs.New()
		mu.Lock()
		defer mu.Unlock()
		k := key{scheme, seed}
		if _, dup := handed[k]; dup {
			t.Errorf("Observe called twice for %v — concurrent runs would share a sink", k)
		}
		handed[k] = o
		return o
	}
	if _, err := RunSweep(opts); err != nil {
		t.Fatal(err)
	}
	if want := n * len(opts.Schemes); len(handed) != want {
		t.Fatalf("%d distinct observer keys, want %d: %v", len(handed), want, handed)
	}
	for _, scheme := range opts.Schemes {
		for seed := int64(1); seed <= n; seed++ {
			if _, ok := handed[key{scheme, seed}]; !ok {
				t.Errorf("no observer handed for %s at seed %d", scheme, seed)
			}
		}
	}
}

// TestRobustnessStudyBounded pins what the robustness study (E-R1, a
// sweep over seeds 1..n) inherits from the runner: no more than
// GOMAXPROCS runs are ever in flight (it used to start seeds x schemes
// goroutines at once), and each seed's trace is generated once and only
// when a run first needs it (it used to generate all of them before the
// first run started).
func TestRobustnessStudyBounded(t *testing.T) {
	const n, procs = 6, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	opts := robustnessSweep(n, "first-fit", "dynamic")
	var (
		mu         sync.Mutex
		generated  = map[int64]int{}
		started    int
		startedAtN = -1 // runs started when the last seed's trace was asked for
	)
	opts.Base.TraceGen = func(seed int64) []workload.Request {
		mu.Lock()
		generated[seed]++
		if seed == n {
			startedAtN = started
		}
		mu.Unlock()
		return sweepTrace(seed)
	}
	var live inflight
	opts.Observe = func(string, int64) *obs.Observer {
		mu.Lock()
		started++
		mu.Unlock()
		return obs.NewTracing(&live)
	}
	if _, err := RunSweep(opts); err != nil {
		t.Fatal(err)
	}
	if live.max > procs || live.max == 0 || live.cur != 0 {
		t.Errorf("runs in flight: max %d (want 1..%d), %d left open", live.max, procs, live.cur)
	}
	for seed := int64(1); seed <= n; seed++ {
		if generated[seed] != 1 {
			t.Errorf("seed %d trace generated %d times, want once", seed, generated[seed])
		}
	}
	if startedAtN < n-procs {
		t.Errorf("seed %d's trace was generated with only %d runs started: traces are not lazy", n, startedAtN)
	}
}

// TestRobustnessStudyValidation: a sweep with no seed is refused, not run
// as an empty study.
func TestRobustnessStudyValidation(t *testing.T) {
	if _, err := RunSweep(SweepOptions{Base: smallOptions()}); err == nil {
		t.Error("zero seeds accepted")
	}
}

// BenchmarkSweep measures replication throughput (runs/sec) at several
// worker counts over a small but non-trivial configuration; the
// whole-run view is the compare-sweep workload of `go run ./bench`.
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := smallSweepOptions()
			opts.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunSweep(opts); err != nil {
					b.Fatal(err)
				}
			}
			runs := len(opts.Schemes) * len(opts.Seeds)
			b.ReportMetric(float64(runs)*float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}
