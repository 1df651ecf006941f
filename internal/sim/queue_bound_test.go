package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/spare"
	"repro/internal/workload"
)

// TestPendingBoundedByLiveState holds the event queue to the live state
// after every Step of two seed-1 weeks on the 100-PM fleet: the dynamic
// scheme with spares and timed migrations (every event kind but failures
// and repairs), and first-fit. What can be queued at once:
//   - a live VM (arrived, neither finished nor rejected) has one lifecycle
//     event, its creation or its departure, plus at most one migration
//     cutover;
//   - a PM has one power transition, a boot or a shutdown, plus at most
//     one failure or repair;
//   - the control tick, and the next unfired arrival.
//
// So Pending() <= 2·(live VMs) + 2·PMs + 2. A queue that held every
// arrival from t = 0 breaks it at the first step.
func TestPendingBoundedByLiveState(t *testing.T) {
	jobs, err := workload.Generate(workload.DefaultWeekConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.ToRequests(workload.Filter(jobs, workload.DefaultFilter()))
	sc := spare.DefaultConfig()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"dynamic-spare-timed", Config{Placer: policy.NewDynamic(), Spare: &sc, TimedMigrations: true}},
		{"first-fit", Config{Placer: policy.FirstFit{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.DC, cfg.Requests = cluster.TableIIFleetScaled(100), reqs
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, peak := m.s, 0
			for {
				ok, err := m.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				live := s.arrived - s.res.Summary.VMsCompleted - s.res.Summary.Rejected
				bound := 2*live + 2*s.dc.Size() + 2
				if p := m.Pending(); p > bound {
					t.Fatalf("t=%g, event %d: %d events queued, bound %d (%d live VMs, %d PMs)",
						m.Now(), m.Dispatched(), p, bound, live, s.dc.Size())
				}
				peak = max(peak, m.Pending())
			}
			if _, err := m.Finish(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d events, peak %d queued", m.Dispatched(), peak)
		})
	}
}
