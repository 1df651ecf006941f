package sim

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/spare"
)

// TestRunAuditEventFullTrace runs the kitchen-sink configuration —
// dynamic scheme, spare controller, failures, timed migrations — with
// event-granularity auditing: every event is followed by the cheap
// invariant walk, every control period by the full oracle differential,
// and every consolidation Apply by a matrix self-audit. Zero violations
// over the whole trace is the acceptance bar.
func TestRunAuditEventFullTrace(t *testing.T) {
	sc := spare.DefaultConfig()
	res, err := Run(Config{
		DC:       smallFleet(),
		Placer:   policy.NewDynamic(),
		Requests: mixedLoad(),
		Spare:    &sc,
		Failures: failure.Config{
			MTBF: 5e4, RepairTime: 4000, Seed: 3,
			ReliabilityDecay: 0.9, MinReliability: 0.5,
		},
		TimedMigrations: true,
		Audit:           audit.Event,
	})
	if err != nil {
		t.Fatalf("audited run failed: %v", err)
	}
	if res.AuditChecks == 0 {
		t.Fatal("event-mode run reported zero audit checks")
	}
	if res.Summary.VMsCompleted == 0 {
		t.Fatal("degenerate run: nothing completed")
	}
}

// TestRunAuditPeriodMatchesUnaudited verifies observability: period-mode
// auditing must not change the simulation itself, only observe it.
func TestRunAuditPeriodMatchesUnaudited(t *testing.T) {
	run := func(mode audit.Mode) *Result {
		res, err := Run(Config{
			DC:       smallFleet(),
			Placer:   policy.NewDynamic(),
			Requests: mixedLoad(),
			Audit:    mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(audit.Off)
	audited := run(audit.Period)
	if plain.Summary.TotalEnergyKWh != audited.Summary.TotalEnergyKWh {
		t.Errorf("period auditing changed energy: %g vs %g",
			plain.Summary.TotalEnergyKWh, audited.Summary.TotalEnergyKWh)
	}
	if len(plain.Moves) != len(audited.Moves) {
		t.Errorf("period auditing changed move count: %d vs %d", len(plain.Moves), len(audited.Moves))
	}
	if plain.AuditChecks != 0 {
		t.Errorf("Off mode ran %d checks", plain.AuditChecks)
	}
	if audited.AuditChecks == 0 {
		t.Error("Period mode ran no checks")
	}
}

// TestRunAuditStaticSchemes exercises the auditor without the dynamic
// scheme: the tracker differential is absent (there is no probability
// matrix to check) but the state, energy, and conservation checks must
// still hold over a static baseline's run.
func TestRunAuditStaticSchemes(t *testing.T) {
	for _, placer := range []policy.Policy{policy.FirstFit{}, policy.BestFit{}} {
		res, err := Run(Config{
			DC:       smallFleet(),
			Placer:   placer,
			Requests: mixedLoad(),
			Audit:    audit.Event,
		})
		if err != nil {
			t.Fatalf("%s: audited run failed: %v", placer.Name(), err)
		}
		if res.AuditChecks == 0 {
			t.Fatalf("%s: no checks ran", placer.Name())
		}
	}
}

// TestShapeOverflowCounterStable pins core.sparse_shape_overflow as part
// of the "same decisions" contract: enabling the audit (whose SparseCheck
// builds its own sparse matrices) must not inflate the run's counter,
// because the check detaches the observer while it works.
func TestShapeOverflowCounterStable(t *testing.T) {
	run := func(mode audit.Mode) int64 {
		d := policy.NewDynamic()
		d.Opts.CandidateK = 1 // tiny budget: overflow is routine
		cfg := crashCfg(fragmentingTrace(60), nil)
		cfg.Failures.MTBF = 5000
		cfg.Placer = d
		cfg.Obs = obs.New()
		cfg.Audit = mode
		if _, err := Run(cfg); err != nil {
			t.Fatalf("audit=%v: %v", mode, err)
		}
		return cfg.Obs.Counter("core.sparse_shape_overflow").Value()
	}
	base := run(audit.Off)
	if base == 0 {
		t.Fatal("scenario produced no shape overflows; tighten CandidateK")
	}
	if audited := run(audit.Event); audited != base {
		t.Fatalf("audit inflated the overflow counter: %d with audit, %d without", audited, base)
	}
}
