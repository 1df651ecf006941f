package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/spare"
	"repro/internal/workload"
)

// crashCfg is the adversarial configuration for crash-injection tests:
// timed migrations with a failure rate high enough that machines die
// while holds are in flight, so checkpoints routinely land inside
// migration windows, repair windows, and post-failure re-queues.
func crashCfg(reqs []workload.Request, trace *bytes.Buffer) Config {
	sc := spare.DefaultConfig()
	cfg := Config{
		DC:       smallFleet(),
		Placer:   policy.NewDynamic(),
		Requests: reqs,
		Spare:    &sc,
		Failures: failure.Config{
			MTBF: 8000, RepairTime: 120,
			ReliabilityDecay: 0.9, MinReliability: 0.2, Seed: 3,
		},
		TimedMigrations: true,
		WarmStart:       2,
	}
	if trace != nil {
		cfg.Obs = obs.NewTracing(trace)
	}
	return cfg
}

// TestCrashResumeEveryBoundary is the exhaustive crash-injection sweep:
// one reference run records a checkpoint at EVERY event boundary, then
// each checkpoint is restored into a fresh world and driven to
// completion. Every resumed run must reproduce the reference run's
// canonical trace byte-for-byte and its exact Result. A checkpoint that
// drops or distorts any state — a hold, a pending repair, an RNG draw, a
// half-booted PM — fails at the boundary where that state first exists.
//
// Some checkpoints must land with VMs queued; the first-fit row saturates
// the fleet so most do. A restore that left an active PM out of the queue's change feed
// would let the next drain skip a placement, and the resumed trace would
// diverge there.
func TestCrashResumeEveryBoundary(t *testing.T) {
	for _, row := range []struct {
		name   string
		placer func() policy.Policy
		load   []workload.Request
	}{
		{"dynamic", func() policy.Policy { return policy.NewDynamic() }, fragmentingTrace(24)},
		{"first-fit-saturated", func() policy.Policy { return policy.FirstFit{} }, saturatingTrace(40)},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			cfg := func(trace *bytes.Buffer) Config {
				c := crashCfg(row.load, trace)
				c.Placer = row.placer()
				return c
			}
			crashResumeEveryBoundary(t, cfg)
		})
	}
}

func crashResumeEveryBoundary(t *testing.T, cfg func(*bytes.Buffer) Config) {
	// A point's prefix is the canonical trace up to its boundary: the
	// records are canonicalized as they are written, once, and each
	// resumed tail is held to the rest of the canonical full trace.
	type point struct {
		at       uint64
		ckpt     []byte
		canonLen int
		queued   bool
	}
	var (
		fullTrace  bytes.Buffer
		canonSoFar []byte
		read       int
		points     []point
	)
	m, err := New(cfg(&fullTrace))
	if err != nil {
		t.Fatal(err)
	}
	for {
		var ckpt bytes.Buffer
		if err := m.Save(&ckpt); err != nil {
			t.Fatalf("save at event %d: %v", m.Dispatched(), err)
		}
		canonSoFar = append(canonSoFar, canon(t, fullTrace.Bytes()[read:])...)
		read = fullTrace.Len()
		points = append(points, point{at: m.Dispatched(), ckpt: ckpt.Bytes(), canonLen: len(canonSoFar), queued: len(m.s.queue) > 0})
		ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	resA, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	swept, queued := 0, 0
	for i := 0; i < len(points); i += crashStride {
		swept++
		if points[i].queued {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("no checkpoint swept has a queued VM")
	}
	fullCanon := canon(t, fullTrace.Bytes())
	if !bytes.HasPrefix(fullCanon, canonSoFar) {
		t.Fatal("the trace canonicalized a step at a time is not a prefix of the whole trace canonicalized")
	}
	t.Logf("sweeping %d of %d checkpoints, %d with VMs queued", swept, len(points), queued)

	// Resuming every boundary of a dense sweep is O(n²) events; the plain
	// run keeps the full sweep — it is the test's entire point — and only
	// the race detector's budget strides through it (crashStride).
	for i := 0; i < len(points); i += crashStride {
		pt := points[i]
		var tail bytes.Buffer
		m2, err := Restore(cfg(&tail), bytes.NewReader(pt.ckpt))
		if err != nil {
			t.Fatalf("restore at event %d: %v", pt.at, err)
		}
		resB := runToEnd(t, m2)

		if resumed := canon(t, tail.Bytes()); !bytes.Equal(resumed, fullCanon[pt.canonLen:]) {
			combined := append(fullCanon[:pt.canonLen:pt.canonLen], resumed...)
			at, a, b := diffContext(fullCanon, combined)
			t.Fatalf("crash at event %d: resumed trace diverges at byte %d:\nfull:    ...%s\nresumed: ...%s",
				pt.at, at, a, b)
		}
		if resA.Summary != resB.Summary {
			t.Fatalf("crash at event %d: summaries differ:\nfull:    %+v\nresumed: %+v", pt.at, resA.Summary, resB.Summary)
		}
		if len(resA.Moves) != len(resB.Moves) || resA.Failures != resB.Failures {
			t.Fatalf("crash at event %d: moves %d/%d failures %d/%d",
				pt.at, len(resA.Moves), len(resB.Moves), resA.Failures, resB.Failures)
		}
	}
}

// TestFailureHoldUnwindDeterministic pins the fix for the hold-unwind
// ordering bug: when a PM with several in-flight migration holds fails,
// the holds must be released in VM-ID order, not Go map order. Two runs
// of the same seed must stay byte-identical even under a failure rate
// high enough that multi-hold failures happen routinely. The first run of
// each seed is audited at every event (under -race, of the first
// holdUnwindAudited seeds only); the second is not, so it also shows that
// the audit leaves the run as it is.
func TestFailureHoldUnwindDeterministic(t *testing.T) {
	load := fragmentingTrace(60)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func(mode audit.Mode) []byte {
				var trace bytes.Buffer
				cfg := crashCfg(load, &trace)
				cfg.Failures.Seed = seed
				cfg.Failures.MTBF = 5000
				cfg.Audit = mode
				if _, err := Run(cfg); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return canon(t, trace.Bytes())
			}
			first := audit.Off
			if seed <= holdUnwindAudited {
				first = audit.Event
			}
			a, b := run(first), run(audit.Off)
			if !bytes.Equal(a, b) {
				at, sa, sb := diffContext(a, b)
				t.Fatalf("seed %d: traces diverge at byte %d:\nA: ...%s\nB: ...%s", seed, at, sa, sb)
			}
		})
	}
}

// TestHoldCrashResumeAdversarial drives checkpoint/restore across seeds
// chosen so failures interrupt in-flight migrations (the satellite-3
// bug class): crash at several fractions of each run, resume, and demand
// the exact uninterrupted outcome plus clean terminal state — no leaked
// reservations, no stranded VMs, every request completed exactly once.
func TestHoldCrashResumeAdversarial(t *testing.T) {
	load := fragmentingTrace(60)
	for seed := int64(1); seed <= 8; seed++ {
		mk := func(trace *bytes.Buffer) Config {
			cfg := crashCfg(load, trace)
			cfg.Failures.Seed = seed
			cfg.Failures.MTBF = 5000
			return cfg
		}
		var fullTrace bytes.Buffer
		probe, err := New(mk(&fullTrace))
		if err != nil {
			t.Fatal(err)
		}
		resA := runToEnd(t, probe)
		total := probe.Dispatched()
		fullCanon := canon(t, fullTrace.Bytes())

		for _, frac := range []uint64{4, 2} {
			stop := total / frac
			var prefix bytes.Buffer
			m, err := New(mk(&prefix))
			if err != nil {
				t.Fatal(err)
			}
			for m.Dispatched() < stop {
				if ok, err := m.Step(); err != nil || !ok {
					t.Fatalf("seed %d: step: ok=%v err=%v", seed, ok, err)
				}
			}
			var ckpt bytes.Buffer
			if err := m.Save(&ckpt); err != nil {
				t.Fatalf("seed %d save at %d: %v", seed, stop, err)
			}
			var tail bytes.Buffer
			cfg2 := mk(&tail)
			m2, err := Restore(cfg2, bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				t.Fatalf("seed %d restore at %d: %v", seed, stop, err)
			}
			resB := runToEnd(t, m2)

			combined := append(canon(t, prefix.Bytes()), canon(t, tail.Bytes())...)
			if !bytes.Equal(combined, fullCanon) {
				at, a, b := diffContext(fullCanon, combined)
				t.Fatalf("seed %d crash at %d/%d: trace diverges at byte %d:\nfull:    ...%s\nresumed: ...%s",
					seed, stop, total, at, a, b)
			}
			if resA.Summary != resB.Summary {
				t.Fatalf("seed %d crash at %d: summaries differ:\nfull:    %+v\nresumed: %+v",
					seed, stop, resA.Summary, resB.Summary)
			}
			if resB.Summary.VMsCompleted+resB.Summary.Rejected != len(load) {
				t.Fatalf("seed %d: %d completed + %d rejected != %d requests",
					seed, resB.Summary.VMsCompleted, resB.Summary.Rejected, len(load))
			}
			for _, pm := range cfg2.DC.PMs() {
				if !pm.Reserved().IsZero() {
					t.Fatalf("seed %d: PM %d leaked reservation %v after resumed drain", seed, pm.ID, pm.Reserved())
				}
			}
			cfg2.DC.WalkPlacements(func(pm *cluster.PM, vm *cluster.VM) error {
				t.Fatalf("seed %d: VM %d still placed on PM %d (%s) after resumed drain", seed, vm.ID, pm.ID, vm.State)
				return nil
			})
		}
	}
}
