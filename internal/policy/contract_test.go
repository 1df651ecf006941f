package policy

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vector"
)

// contractFleet builds four fast PMs (capacity 8x8) in the states a queued
// VM meets: PM0 on and full, PM1 on with room left, PM2 off, PM3 in the
// given state and empty. partly is PM1's load.
func contractFleet(t *testing.T, partly vector.V, pm3 cluster.PMState) *core.Context {
	t.Helper()
	fast := cluster.FastClass
	d := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 4}},
	})
	d.PM(0).SetState(cluster.PMOn)
	d.PM(1).SetState(cluster.PMOn)
	d.PM(3).SetState(pm3)
	for i, load := range []struct {
		pm     cluster.PMID
		demand vector.V
	}{{0, vector.New(8, 8)}, {1, partly}} {
		vm := cluster.NewVM(cluster.VMID(100+i), load.demand, 100000, 100000, 0)
		if err := d.PM(load.pm).Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
	}
	return &core.Context{DC: d, Now: 0}
}

// placerState is everything a later decision could read from p's own
// state: the checkpointed policy state (Adaptive's threshold walk, the
// Recorder's counters) and Random's stream.
func placerState(p Policy) string {
	var out string
	if st := CaptureState(p); st != nil {
		out = fmt.Sprintf("recorder=%+v adaptive=%+v", st.Recorder, st.Adaptive)
	}
	if r, ok := RandomOf(p); ok {
		out += fmt.Sprintf(" rng=%v", r.RNGState())
	}
	return out
}

// TestPlaceContract pins the Place contract the simulator's queue drain
// relies on to skip a queued VM without asking: Place returns nil exactly
// when no active PM can host the demand (PM.CanHost, by a cold scan), a
// non-nil answer can host it, and a nil call draws no randomness and
// changes no policy state.
func TestPlaceContract(t *testing.T) {
	names := []string{"first-fit", "best-fit", "worst-fit", "random", "threshold", "dynamic", "overbook", "dynamic-adaptive"}
	schemes := map[string]func() Policy{}
	for _, name := range names {
		schemes[name] = func() Policy {
			p, err := ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			if a, ok := p.(*Adaptive); ok {
				// Off its defaults, so a reset would show.
				if err := a.RestoreState(AdaptiveState{Threshold: 1.1, Idle: 3}); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
	}
	names = append(names, "recorded-random")
	schemes["recorded-random"] = func() Policy {
		rec := NewRecorder(NewRandom(7), 3)
		rec.RestoreState(RecorderState{Calls: 5, Ticks: 2})
		return rec
	}

	fixtures := []struct {
		name   string
		partly vector.V
		pm3    cluster.PMState
	}{
		{"booting-spare", vector.New(4, 4), cluster.PMBooting},
		{"on-spare", vector.New(2, 6), cluster.PMOn},
		{"no-spare", vector.New(4, 4), cluster.PMOff},
		{"saturated", vector.New(7.5, 7.75), cluster.PMShuttingDown},
	}
	demands := []vector.V{
		vector.New(1, 0.25), vector.New(2, 2), vector.New(4, 4),
		vector.New(6, 1), vector.New(8, 8), vector.New(9, 1),
	}
	// answers counts the cases by how many PMs can host: the table must
	// hold both kinds, and one where only a booting PM has room.
	answers := map[int]int{}
	for _, fx := range fixtures {
		for _, demand := range demands {
			for _, name := range names {
				ctx := contractFleet(t, fx.partly, fx.pm3)
				if name == "recorded-random" {
					obsCtx(ctx)
				}
				fits := 0
				for _, pm := range ctx.DC.PMs() {
					if pm.CanHost(demand) {
						fits++
					}
				}
				answers[min(fits, 1)]++
				if fx.pm3 == cluster.PMBooting && fits == 1 && ctx.DC.PM(3).CanHost(demand) {
					answers[-1]++
				}
				p := schemes[name]()
				before := placerState(p)
				vm := cluster.NewVM(1, demand, 3600, 3600, 0)
				got := p.Place(ctx, vm)
				where := fmt.Sprintf("%s on %s, demand %v (%d PMs can host)", name, fx.name, demand, fits)
				switch {
				case got == nil && fits > 0:
					t.Errorf("%s: Place returned nil", where)
				case got != nil && fits == 0:
					t.Errorf("%s: Place returned PM %d", where, got.ID)
				case got != nil && !got.CanHost(demand):
					t.Errorf("%s: Place returned PM %d, which cannot host it", where, got.ID)
				case got == nil:
					if after := placerState(p); after != before {
						t.Errorf("%s: a nil Place changed the placer's state:\nbefore %s\nafter  %s", where, before, after)
					}
				}
			}
		}
	}
	if answers[0] == 0 || answers[1] == 0 || answers[-1] == 0 {
		t.Fatalf("fixtures cover %d no-host, %d host and %d booting-only cases; want each", answers[0], answers[1], answers[-1])
	}
}
