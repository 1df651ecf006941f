package exp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestJSONRoundTrip(t *testing.T) {
	runs, err := Comparison(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, runs); err != nil {
		t.Fatal(err)
	}
	records, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(runs) {
		t.Fatalf("records = %d", len(records))
	}
	for i, rec := range records {
		if rec.Scheme != runs[i].Scheme {
			t.Errorf("record %d scheme = %q", i, rec.Scheme)
		}
		if rec.WeekEnergyKWh != runs[i].WeekEnergyKWh {
			t.Errorf("record %d energy mismatch", i)
		}
		if len(rec.HourlyActivePMs) == 0 || len(rec.HourlyActivePMs) > WeekHours {
			t.Errorf("record %d series length %d", i, len(rec.HourlyActivePMs))
		}
	}
}

func TestReadJSONMalformed(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestRobustnessStudySmall(t *testing.T) {
	opts := smallOptions()
	opts.Schemes = []string{"first-fit", "dynamic"}
	opts.TraceGen = func(seed int64) []workload.Request {
		// Seed-perturbed variant of the small fragmenting trace.
		rs := smallTrace()
		for i := range rs {
			rs[i].Submit += float64(int(seed) * (i % 7))
		}
		return rs
	}
	// A fixed trace must not stand in for the per-seed ones.
	opts.Trace = smallTrace()[:1]
	rep, err := RobustnessStudy(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Aggregates) != 2 || len(rep.Runs) != 4 {
		t.Fatalf("%d aggregates, %d runs; want 2 and 4", len(rep.Aggregates), len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if want := int64(i%2 + 1); r.Seed != want {
			t.Errorf("run %d (%s) has seed %d, want %d", i, r.Scheme, r.Seed, want)
		}
		if r.WeekEnergyKWh <= 0 || r.VMsCompleted != 150 {
			t.Errorf("%s seed %d: energy %g, completed %d/150", r.Scheme, r.Seed, r.WeekEnergyKWh, r.VMsCompleted)
		}
	}
	out := RobustnessReport(rep)
	if !strings.Contains(out, "dynamic beats first-fit") {
		t.Errorf("report missing win line:\n%s", out)
	}
}

func TestRobustnessStudyValidation(t *testing.T) {
	if _, err := RobustnessStudy(0, smallOptions()); err == nil {
		t.Error("zero seeds accepted")
	}
}

func TestRobustnessReportWithoutDynamic(t *testing.T) {
	out := RobustnessReport(&SweepReport{
		Schemes:    []string{"first-fit"},
		Seeds:      []int64{1},
		Runs:       []SweepRun{{Scheme: "first-fit", Seed: 1, WeekEnergyKWh: 1}},
		Aggregates: []SweepAggregate{{Scheme: "first-fit", Runs: 1}},
	})
	if strings.Contains(out, "beats") {
		t.Error("win lines without a dynamic study")
	}
}

func TestGoogleTraceShape(t *testing.T) {
	reqs := GoogleTrace(2)
	if len(reqs) < 15000 {
		t.Errorf("google-like trace too small: %d requests", len(reqs))
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Submit < reqs[i-1].Submit {
			t.Fatal("trace not sorted")
		}
	}
	// Median runtime must be in the minutes range, not hours.
	runtimes := make([]float64, len(reqs))
	for i, q := range reqs {
		runtimes[i] = q.RunTime
	}
	if med := stats.Median(runtimes); med > 3600 {
		t.Errorf("median runtime %gs, want sub-hour cloud tasks", med)
	}
}

// TestRobustnessStudyJoinsAllErrors: a broken scheme fails at every seed,
// and the study must name each (scheme, seed) pair.
func TestRobustnessStudyJoinsAllErrors(t *testing.T) {
	base := smallOptions()
	base.Schemes = []string{"first-fit", "no-such-scheme"}
	base.TraceGen = sweepTrace
	_, err := RobustnessStudy(2, base)
	if err == nil {
		t.Fatal("study with a bogus scheme succeeded")
	}
	for seed := 1; seed <= 2; seed++ {
		want := fmt.Sprintf("(scheme no-such-scheme, seed %d)", seed)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %s:\n%v", want, err)
		}
	}
	if strings.Contains(err.Error(), "scheme first-fit") {
		t.Errorf("error blames the healthy scheme:\n%v", err)
	}
}

// TestRobustnessStudyObserverPerSeed is the regression test for the
// shared-observer hazard: the study runs the same scheme concurrently at
// every seed, so Observe is keyed by (scheme, seed) and every run must
// end up with a private observer.
func TestRobustnessStudyObserverPerSeed(t *testing.T) {
	const n = 3
	base := smallOptions()
	base.Schemes = []string{"first-fit", "dynamic"}
	base.TraceGen = sweepTrace
	type key struct {
		scheme string
		seed   int64
	}
	var mu sync.Mutex
	handed := map[key]*obs.Observer{}
	base.Observe = func(scheme string, seed int64) *obs.Observer {
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
	if _, err := RobustnessStudy(n, base); err != nil {
		t.Fatal(err)
	}
	if want := n * len(base.Schemes); len(handed) != want {
		t.Fatalf("%d distinct observer keys, want %d: %v", len(handed), want, handed)
	}
	for _, scheme := range base.Schemes {
		for seed := int64(1); seed <= n; seed++ {
			if _, ok := handed[key{scheme, seed}]; !ok {
				t.Errorf("no observer handed for %s at seed %d", scheme, seed)
			}
		}
	}
}

// inflight is a trace sink that counts the runs between their run_start
// and run_end events, across every tracer writing to it.
type inflight struct {
	mu       sync.Mutex
	cur, max int
}

func (g *inflight) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case bytes.Contains(p, []byte(`"event":"run_start"`)):
		if g.cur++; g.cur > g.max {
			g.max = g.cur
		}
	case bytes.Contains(p, []byte(`"event":"run_end"`)):
		g.cur--
	}
	return len(p), nil
}

// TestRobustnessStudyBounded pins what the study inherits from the
// runner: no more than GOMAXPROCS runs are ever in flight (it used to
// start seeds x schemes goroutines at once), and each seed's trace is
// generated once and only when a run first needs it (it used to generate
// all of them before the first run started).
func TestRobustnessStudyBounded(t *testing.T) {
	const n, procs = 6, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	base := smallOptions()
	base.Schemes = []string{"first-fit", "dynamic"}
	var (
		mu         sync.Mutex
		generated  = map[int64]int{}
		started    int
		startedAtN = -1 // runs started when the last seed's trace was asked for
	)
	base.TraceGen = func(seed int64) []workload.Request {
		mu.Lock()
		generated[seed]++
		if seed == n {
			startedAtN = started
		}
		mu.Unlock()
		return sweepTrace(seed)
	}
	var live inflight
	base.Observe = func(string, int64) *obs.Observer {
		mu.Lock()
		started++
		mu.Unlock()
		return obs.NewTracing(&live)
	}
	if _, err := RobustnessStudy(n, base); err != nil {
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
