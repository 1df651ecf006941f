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

// TestScaleWeekDigest pins the 300-PM week (`tracegen -jobs 13722`, then
// `dvmpsim -swf … -nodes 300 -spare -decisions …`) by the FNV-64a digests
// of its canonical run trace and decision log: the one tier-1 run at three
// times the paper's fleet. The run is then checkpointed after a third of
// its arrivals, while most are still unfired, and resumed once: the resumed
// run must re-save the checkpoint's exact bytes right after Restore, and its
// streams, written after a copy of the prefix's raw bytes, must complete
// both digests.
func TestScaleWeekDigest(t *testing.T) {
	const (
		wantRun uint64 = 0x752f3ace090f9283
		wantDec uint64 = 0x7f6e133883f9b7e5
	)
	reqs := scaleWeek(t)
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
	m, err := New(cfg(run, dec))
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
