package sim

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/failure"
	"repro/internal/policy"
)

// TestSourceFailureDuringTimedMigration targets the interaction the fleet
// model makes easy to get wrong: a PM fails while it is the *source* of an
// in-flight timed migration. The reservation must be unwound and the
// migrated VM (living on its new host) must return to Running so it can
// migrate again later.
func TestSourceFailureDuringTimedMigration(t *testing.T) {
	// High failure rate to hit the window frequently across seeds.
	for seed := int64(1); seed <= 8; seed++ {
		dc := smallFleet()
		res, err := Run(Config{
			DC:              dc,
			Placer:          policy.NewDynamic(),
			Requests:        fragmentingTrace(60),
			TimedMigrations: true,
			Failures: failure.Config{
				MTBF: 8000, RepairTime: 120,
				ReliabilityDecay: 0.9, MinReliability: 0.2, Seed: seed,
			},
			Audit: audit.Event,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Summary.VMsCompleted != 60 {
			t.Errorf("seed %d: completed %d/60", seed, res.Summary.VMsCompleted)
		}
		for _, pm := range dc.PMs() {
			if !pm.Reserved().IsZero() {
				t.Errorf("seed %d: PM %d leaked reservation %v", seed, pm.ID, pm.Reserved())
			}
		}
		// No VM may be stranded in a non-terminal state.
		dc.WalkPlacements(func(pm *cluster.PM, vm *cluster.VM) error {
			t.Errorf("seed %d: VM %d still placed on PM %d (%s) after drain", seed, vm.ID, pm.ID, vm.State)
			return nil
		})
	}
}

// TestTargetFailureDuringTimedMigration drives the complementary case: the
// machine a VM is migrating *into* fails mid-transfer; the VM is re-queued
// like a fresh request and must still finish.
func TestTargetFailureDuringTimedMigration(t *testing.T) {
	dc := smallFleet()
	res, err := Run(Config{
		DC:              dc,
		Placer:          policy.NewDynamic(),
		Requests:        fragmentingTrace(40),
		TimedMigrations: true,
		Failures: failure.Config{
			MTBF: 5000, RepairTime: 60,
			ReliabilityDecay: 0.85, MinReliability: 0.3, Seed: 4,
		},
		Audit: audit.Event,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.VMsCompleted != 40 {
		t.Errorf("completed %d/40", res.Summary.VMsCompleted)
	}
	for _, pm := range dc.PMs() {
		if !pm.Reserved().IsZero() {
			t.Errorf("PM %d leaked reservation %v", pm.ID, pm.Reserved())
		}
	}
}
