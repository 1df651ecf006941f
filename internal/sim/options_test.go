package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
)

func TestWarmStartPowersOnPMs(t *testing.T) {
	res, err := Run(Config{
		DC:        smallFleet(),
		Placer:    policy.FirstFit{},
		Requests:  reqs(5, 1, 600),
		WarmStart: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With machines already on, the first arrivals place immediately.
	if res.Summary.QueuedFraction != 0 {
		t.Errorf("warm start still queued %.2f%% of requests", res.Summary.QueuedFraction*100)
	}
	if got := res.ActivePMs.At(0); got != 3 {
		t.Errorf("t=0 active sample = %g, want 3", got)
	}
}

func TestWarmStartValidation(t *testing.T) {
	bad := []int{-1, 7} // fleet has 6 PMs
	for _, w := range bad {
		_, err := Run(Config{DC: smallFleet(), Placer: policy.FirstFit{}, Requests: reqs(1, 1, 10), WarmStart: w})
		if err == nil {
			t.Errorf("warm start %d accepted", w)
		}
	}
}

// TestEventLogRecordsLifecycle pins the run trace as the event log: every
// lifecycle event the simulator handles shows up as a structured record,
// each line led by the schema version, logical clock and simulation time.
func TestEventLogRecordsLifecycle(t *testing.T) {
	var trace, text strings.Builder
	_, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.NewDynamic(),
		Requests: fragmentingTrace(20),
		Obs:      obs.NewTracing(&trace),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Render(strings.NewReader(trace.String()), &text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, event := range []string{"arrival", "place", "depart", "boot", "migration", "shutdown"} {
		if !strings.Contains(out, `"event":"`+event+`"`) {
			t.Errorf("run trace missing %q events", event)
		}
	}
	for i, line := range strings.Split(strings.TrimSpace(out), "\n")[:5] {
		if want := fmt.Sprintf(`{"v":1,"seq":%d,"t":`, i); !strings.HasPrefix(line, want) {
			t.Fatalf("trace line %q does not start with %s", line, want)
		}
	}
}

func TestMeanUtilizationSeries(t *testing.T) {
	dyn, err := Run(Config{DC: smallFleet(), Placer: policy.NewDynamic(), Requests: fragmentingTrace(60)})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Run(Config{DC: smallFleet(), Placer: policy.FirstFit{}, Requests: fragmentingTrace(60)})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.MeanUtilization.Len() != dyn.ActivePMs.Len() {
		t.Fatal("utilization series length mismatch")
	}
	for _, u := range dyn.MeanUtilization.Values {
		if u < 0 || u > 1 {
			t.Fatalf("utilization sample %g outside [0,1]", u)
		}
	}
	// The consolidating scheme should sustain at least the static
	// scheme's packing density on this fragmenting trace.
	if dyn.MeanUtilization.Mean() < ff.MeanUtilization.Mean()-0.02 {
		t.Errorf("dynamic mean utilization %.3f below first-fit %.3f",
			dyn.MeanUtilization.Mean(), ff.MeanUtilization.Mean())
	}
}
