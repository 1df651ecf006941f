package sim

import (
	"bytes"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/workload"
)

// walkFirstFit is first-fit as a fleet walk: the lowest-ID PM that
// CanHosts the demand, found by trying every PM in ID order. It is the
// reference FirstFit's index is held to.
type walkFirstFit struct{ policy.FirstFit }

func (walkFirstFit) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	for _, pm := range ctx.DC.PMs() {
		if pm.CanHost(vm.Demand) {
			return pm
		}
	}
	return nil
}

// tenfold is the first days of the seed-1 week at 10x, the
// static-fleet-1k workload's load (all seven are its first input).
func tenfold(t *testing.T, days int) []workload.Request {
	gc := workload.DefaultWeekConfig(1)
	gc.DailyJobs = gc.DailyJobs[:days]
	for i := range gc.DailyJobs {
		gc.DailyJobs[i] *= 10
	}
	jobs, err := workload.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	workload.SortBySubmit(jobs)
	return workload.ToRequests(jobs)
}

// TestFirstFitIndexAtScale runs the first day of the seed-1 week at 10x
// (the static-fleet-1k workload's load) on a 1,000-PM Table II fleet,
// first-fit without spares, placing through the fleet walk and through the
// datacenter's first-fit index. The indexed run is checkpointed halfway
// and finished twice: by itself, and resumed on a fresh fleet, whose index
// is then built from the restored state. The three canonical run traces
// must have one FNV-64a digest.
func TestFirstFitIndexAtScale(t *testing.T) {
	reqs := tenfold(t, 1)
	cfg := func(placer policy.Policy, trace *bytes.Buffer) Config {
		return Config{DC: cluster.TableIIFleetScaled(1000), Placer: placer, Requests: reqs, Obs: obs.NewTracing(trace)}
	}
	digest := func(traces ...[]byte) uint64 {
		h := fnv.New64a()
		for _, tr := range traces {
			h.Write(canon(t, tr))
		}
		return h.Sum64()
	}

	var walked, indexed, tail bytes.Buffer
	m, err := New(cfg(walkFirstFit{}, &walked))
	if err != nil {
		t.Fatal(err)
	}
	res := runToEnd(t, m)
	events := m.Dispatched()
	want := digest(walked.Bytes())

	m, err = New(cfg(policy.FirstFit{}, &indexed))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < events/2 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	prefix := indexed.Len()
	assertSameOutcome(t, res, runToEnd(t, m))
	if got := digest(indexed.Bytes()); got != want {
		at, a, b := diffContext(canon(t, walked.Bytes()), canon(t, indexed.Bytes()))
		t.Fatalf("indexed trace digest %#x, walked %#x; first difference at byte %d:\nwalk:  ...%s\nindex: ...%s", got, want, at, a, b)
	}

	m, err = Restore(cfg(policy.FirstFit{}, &tail), &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed := runToEnd(t, m)
	if got := digest(indexed.Bytes()[:prefix], tail.Bytes()); got != want {
		t.Fatalf("checkpointed at event %d of %d and resumed: trace digest %#x, want %#x", events/2, events, got, want)
	}
	assertSameOutcome(t, res, resumed)
	t.Logf("%d requests, %d events, %d boots, digest %#x", len(reqs), events, res.Summary.Boots, want)
}
