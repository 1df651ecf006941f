package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
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

// TestCellConfigValidation pins the accept/reject set of the two inert
// fields bench/ still sets: a negative Cells or KernelWorkers, or more
// cells than PMs, is rejected; anything else is accepted and not read.
func TestCellConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cells, workers int
		ok             bool
	}{{-1, 0, false}, {0, 0, true}, {1, 0, true}, {6, 0, true}, {7, 0, false}, {0, -1, false}, {0, 2, true}} {
		cfg := Config{DC: smallFleet(), Placer: policy.NewDynamic(), Requests: reqs(2, 10, 100), Cells: tc.cells, KernelWorkers: tc.workers}
		_, err := New(cfg)
		if tc.ok && err != nil {
			t.Errorf("Cells=%d KernelWorkers=%d rejected: %v", tc.cells, tc.workers, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Cells=%d KernelWorkers=%d accepted (fleet is %d PMs)", tc.cells, tc.workers, smallFleet().Size())
		}
	}
}

// heldFactor is a user factor the candidate index does not evaluate.
type heldFactor struct{}

func (heldFactor) Name() string { return "held" }

func (heldFactor) Probability(*core.Context, *cluster.VM, *cluster.PM, bool) float64 { return 1 }

// TestNewRefusesUncoveredFactorLists: sim.New runs a dynamic scheme only
// on a factor list the candidate index evaluates — an in-order subsequence
// of (res, vir, rel, eff) that starts with res, then at most one price
// term — and refuses every other shape with an error naming the offending
// factor, never a panic; the covered lists next to them start. The scheme
// is found under its wrappers (a Recorder here).
func TestNewRefusesUncoveredFactorLists(t *testing.T) {
	res, vir, rel, eff := core.ResourceFactor{}, core.VirtualizationFactor{}, core.ReliabilityFactor{}, core.EfficiencyFactor{}
	price := core.NewPriceFactor([]string{"a"}, "a", core.FlatPrices(map[string]float64{"a": 1}))
	for _, tc := range []struct {
		name    string
		factors []core.Factor
		want    string // "" for a list New accepts
	}{
		{"the paper's four", core.DefaultFactors(), ""},
		{"an ablation", []core.Factor{res, vir, eff}, ""},
		{"a price term appended", []core.Factor{res, rel, eff, price}, ""},
		{"an opaque factor", []core.Factor{res, vir, heldFactor{}, eff}, "factor 3, held (sim.heldFactor), is not one the candidate index evaluates"},
		{"a permuted order", []core.Factor{res, rel, vir, eff}, "factor 3, vir, follows rel"},
		{"no res", []core.Factor{vir, rel, eff}, "it starts with vir, not res"},
		{"a factor after the price", []core.Factor{res, vir, price, rel}, "factor 4, rel, follows price"},
		{"two price terms", []core.Factor{res, price, price}, "factor 3, price, follows price"},
		{"a repeated factor", []core.Factor{res, vir, vir}, "factor 3, vir, follows vir"},
		{"a nil factor", []core.Factor{res, nil}, "factor 2, nil (<nil>)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			placer := policy.NewRecorder(policy.NewDynamicVariant("variant", tc.factors, core.DefaultParams()), 0)
			_, err := New(Config{DC: smallFleet(), Placer: placer, Requests: reqs(3, 1, 600)})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("a covered list refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "sim: scheme variant: core: factor list")):
				t.Fatalf("New: %v, want a refusal naming %q", err, tc.want)
			}
		})
	}
}
