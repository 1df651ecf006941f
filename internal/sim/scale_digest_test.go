package sim

import (
	"bytes"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/spare"
	"repro/internal/workload"
)

// canonDigest is the FNV-64a of a stream's canonical form
// (obs.Canonicalize), the digest `TestDecisionLogDigest` pins.
func canonDigest(t *testing.T, stream *bytes.Buffer) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := obs.Canonicalize(bytes.NewReader(stream.Bytes()), h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// scaleWeek is the scale ladder's 300-PM week: `tracegen -jobs 13722`
// (the default week's daily shape scaled to 13,722 jobs, the remainder on
// the first days), written as SWF and read back, then filtered and split
// into VM requests as `dvmpsim -swf` does.
func scaleWeek(t *testing.T) []workload.Request {
	t.Helper()
	const jobs = 13722
	gc := workload.DefaultWeekConfig(1)
	total := 0
	for _, n := range gc.DailyJobs {
		total += n
	}
	daily := make([]int, len(gc.DailyJobs))
	sum := 0
	for d, n := range gc.DailyJobs {
		daily[d] = n * jobs / total
		sum += daily[d]
	}
	for d := 0; sum < jobs; d, sum = (d+1)%len(daily), sum+1 {
		daily[d]++
	}
	gc.DailyJobs = daily
	gen, err := workload.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	var swf bytes.Buffer
	if err := workload.WriteSWF(&swf, gen, "scale week"); err != nil {
		t.Fatal(err)
	}
	parsed, err := workload.ParseSWF(&swf)
	if err != nil {
		t.Fatal(err)
	}
	workload.SortBySubmit(parsed)
	return workload.ToRequests(workload.Filter(parsed, workload.DefaultFilter()))
}

// scaleWeekPins is what TestScaleWeekDigest replays of the 300-PM week and
// pins of it: the first requests of it (0: all), the FNV-64a digests of
// the canonical run trace and decision log, and the first run's exact
// column scans and algo1_rounds calls. A plain build replays the whole
// week (scale_pins_test.go); the race detector's build, a prefix that
// keeps the test within its budget there (scale_pins_race_test.go).
type scaleWeekPins struct {
	requests      int
	run, dec      uint64
	scans, rounds int64
}

// TestScaleWeekDigest pins the 300-PM week (`tracegen -jobs 13722`, then
// `dvmpsim -swf … -nodes 300 -spare -decisions …`) by the FNV-64a digests
// of its canonical run trace and decision log: the one tier-1 run at three
// times the paper's fleet (scalePins: under -race, a prefix of it). The run
// is then checkpointed after a third of its arrivals, while most are still
// unfired, and resumed once: the resumed run must re-save the checkpoint's
// exact bytes right after Restore, and its streams, written after a copy of
// the prefix's raw bytes, must complete both digests. The first run's exact
// column scans and algo1_rounds calls are pinned too.
func TestScaleWeekDigest(t *testing.T) {
	wantRun, wantDec := scalePins.run, scalePins.dec
	reqs := scaleWeek(t)
	if n := scalePins.requests; n > 0 {
		reqs = reqs[:n]
	}
	cfg := func(run, dec *bytes.Buffer) Config {
		sc := spare.DefaultConfig()
		o := obs.New()
		o.Trace, o.Decisions = obs.NewTracer(run), obs.NewTracer(dec)
		return Config{
			DC:       cluster.TableIIFleetScaled(300),
			Placer:   policy.NewRecorder(policy.NewDynamic(), 0),
			Requests: reqs,
			Spare:    &sc,
			Obs:      o,
		}
	}

	run, dec := new(bytes.Buffer), new(bytes.Buffer)
	first := cfg(run, dec)
	m, err := New(first)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt, runAt, decAt []byte
	var arrivedAt int
	for {
		if ckpt == nil && m.s.arrived >= len(reqs)/3 {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			ckpt, arrivedAt = buf.Bytes(), m.s.arrived
			runAt, decAt = bytes.Clone(run.Bytes()), bytes.Clone(dec.Bytes())
		}
		ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := canonDigest(t, run); got != wantRun {
		t.Errorf("run trace digest %#x, want %#x", got, wantRun)
	}
	if got := canonDigest(t, dec); got != wantDec {
		t.Errorf("decision log digest %#x, want %#x", got, wantDec)
	}
	t.Logf("%d requests, %d events, queued %.2f %%, checkpoint at arrival %d",
		len(reqs), m.Dispatched(), 100*res.Summary.QueuedFraction, arrivedAt)
	// The lazy rounds' work on this week, as found: a column's key carries
	// its own largest p_vir, so on the whole week 11,557 passes keep a
	// column in their first sweep, and a round scans exactly only the
	// columns whose key can beat its running best (25,480 scans). Keys
	// without p_vir read 450,726 scans and 14,193 passes; any change to
	// which columns a round keeps or scans moves these counts while the
	// digests stay put.
	if got := first.Obs.Counter("core.exact_column_scans").Value(); got != scalePins.scans {
		t.Errorf("core.exact_column_scans = %d, want %d", got, scalePins.scans)
	}
	if got := first.Obs.Phase("algo1_rounds").Calls(); got != scalePins.rounds {
		t.Errorf("algo1_rounds calls = %d, want %d", got, scalePins.rounds)
	}

	run, dec = bytes.NewBuffer(bytes.Clone(runAt)), bytes.NewBuffer(bytes.Clone(decAt))
	m, err = Restore(cfg(run, dec), bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m.Save(&again); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	if !bytes.Equal(again.Bytes(), ckpt) {
		at, a, b := diffContext(ckpt, again.Bytes())
		t.Fatalf("re-save after Restore differs at byte %d:\nsaved:    ...%s\nre-saved: ...%s", at, a, b)
	}
	assertSameOutcome(t, res, runToEnd(t, m))
	if got := canonDigest(t, run); got != wantRun {
		t.Errorf("resumed run trace digest %#x, want %#x", got, wantRun)
	}
	if got := canonDigest(t, dec); got != wantDec {
		t.Errorf("resumed decision log digest %#x, want %#x", got, wantDec)
	}
}
