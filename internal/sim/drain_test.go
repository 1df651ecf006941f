package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/workload"
)

// saturatingTrace is n requests of 1-3 cores, one every 20 s, each running
// 30-50 minutes: several times the cores smallFleet has, so a queue forms
// within minutes and drains only as machines boot and VMs depart.
func saturatingTrace(n int) []workload.Request {
	out := make([]workload.Request, n)
	for i := range out {
		cpu := float64(1 + i%3)
		run := 1800 + float64(i%5)*300
		out[i] = workload.Request{
			JobID: i + 1, Submit: float64(i) * 20,
			CPUCores: cpu, MemoryGB: cpu / 2,
			EstimatedRunTime: run, RunTime: run,
		}
	}
	return out
}

// countingPlacer wraps a Policy and counts its Place calls.
type countingPlacer struct {
	policy.Policy
	calls int
}

func (c *countingPlacer) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	c.calls++
	return c.Policy.Place(ctx, vm)
}

// TestDrainAsksOnlyWhatAChangeCouldAdmit holds the queue drain to its
// claim: on a saturated first-fit run with PM failures, the placer is
// asked once per arrival, once per VM a failure re-places, and once more
// for each queued VM, by the drain that places it. A drain asks about no
// VM that it then fails to place.
func TestDrainAsksOnlyWhatAChangeCouldAdmit(t *testing.T) {
	var trace bytes.Buffer
	o := obs.NewTracing(&trace)
	pl := &countingPlacer{Policy: policy.FirstFit{}}
	reqs := saturatingTrace(300)
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   pl,
		Requests: reqs,
		Failures: failure.Config{MTBF: 6000, RepairTime: 300, ReliabilityDecay: 0.9, MinReliability: 0.2, Seed: 5},
		Obs:      o,
		Audit:    audit.Event,
	})
	if err != nil {
		t.Fatal(err)
	}
	victims := 0
	for _, line := range bytes.Split(bytes.TrimSpace(trace.Bytes()), []byte("\n")) {
		var ev struct {
			Event   string `json:"event"`
			Victims int    `json:"victims"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Event == "failure" {
			victims += ev.Victims
		}
	}
	queued := int(o.Counter("sim.queued").Value())
	if res.Failures == 0 || victims == 0 || queued < len(reqs)/2 {
		t.Fatalf("workload too mild: %d failures re-placing %d VMs, %d of %d requests queued", res.Failures, victims, queued, len(reqs))
	}
	if want := len(reqs) + victims + queued; pl.calls != want {
		t.Errorf("Place called %d times, want %d: %d arrivals + %d failure re-placements + %d successful retries",
			pl.calls, want, len(reqs), victims, queued)
	}
}

// TestDrainCheckNamesTheSkippedPM drops one entry from the queue's change
// feed — the PM a queued VM could now take — and requires the drain's
// audit twin to fail naming that VM and that PM.
func TestDrainCheckNamesTheSkippedPM(t *testing.T) {
	m, err := New(Config{
		DC:       smallFleet(),
		Placer:   policy.FirstFit{},
		Requests: saturatingTrace(120),
		Audit:    audit.Event,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.s
	// Step until a queued VM fits an active PM: a machine booted for the
	// queue, or room a departure left that no drain has offered yet.
	var vm *cluster.VM
	var pm *cluster.PM
	for vm == nil {
		ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("run ended before a queued VM could fit an active PM")
		}
		for _, q := range s.queue {
			for _, p := range s.dc.PMs() {
				if p.CanHost(q.Demand) {
					vm, pm = q, p
					break
				}
			}
			if vm != nil {
				break
			}
		}
	}
	if err := s.aud.RunEvent(s.eng.Now()); err != nil {
		t.Fatalf("audit failed before the feed was damaged: %v", err)
	}
	for _, id := range append([]cluster.PMID(nil), s.qfeed.Take()...) {
		if id != pm.ID {
			s.qfeed.Add(id)
		}
	}
	err = s.aud.RunEvent(s.eng.Now())
	if err == nil {
		t.Fatalf("audit passed with PM %d dropped from the queue's feed while queued VM %d fits it", pm.ID, vm.ID)
	}
	for _, want := range []string{"drain", fmt.Sprintf("VM %d ", vm.ID), fmt.Sprintf("PM %d,", pm.ID)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("violation %q does not name %q", err, want)
		}
	}
}
