package sim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/spare"
)

// FuzzSnapshotResume is the randomized crash-injection differential: the
// fuzzer picks a run configuration (placer, timed migrations, spare
// controller, failure seed) and a kill point; the harness runs the
// uninterrupted reference, then "crashes" a second run at that event
// boundary — keeping nothing but the checkpoint bytes — resumes it in a
// fresh world, and demands the canonical trace and the Result match the
// reference exactly. Any state the snapshot loses, any map-order
// nondeterminism in an event handler, any RNG not carried across the
// boundary shows up as a byte diff.
func FuzzSnapshotResume(f *testing.F) {
	f.Add(int64(0), int64(1), uint64(3))
	f.Add(int64(1), int64(3), uint64(97))
	f.Add(int64(2), int64(5), uint64(211))
	f.Add(int64(6), int64(2), uint64(50))
	f.Add(int64(12), int64(7), uint64(500))
	f.Add(int64(13), int64(4), uint64(1))

	f.Fuzz(func(t *testing.T, variant, failSeed int64, stopPick uint64) {
		load := fragmentingTrace(30)
		newPlacer := func() policy.Policy {
			switch variant & 3 {
			case 0:
				return policy.NewDynamic()
			case 1:
				return policy.NewRandom(17)
			default:
				return policy.NewThreshold()
			}
		}
		mk := func(trace *bytes.Buffer) Config {
			cfg := Config{
				DC:              smallFleet(),
				Placer:          newPlacer(),
				Requests:        load,
				TimedMigrations: variant&4 != 0,
				WarmStart:       2,
				Failures: failure.Config{
					MTBF: 9000, RepairTime: 150,
					ReliabilityDecay: 0.9, MinReliability: 0.2,
					Seed: 1 + (failSeed&0xffff)%1000,
				},
			}
			if variant&8 != 0 {
				sc := spare.DefaultConfig()
				cfg.Spare = &sc
			}
			if trace != nil {
				cfg.Obs = obs.NewTracing(trace)
			}
			return cfg
		}

		var fullTrace bytes.Buffer
		probe, err := New(mk(&fullTrace))
		if err != nil {
			t.Fatal(err)
		}
		resA := runToEnd(t, probe)
		total := probe.Dispatched()
		if total < 2 {
			t.Skip("degenerate run")
		}
		stop := 1 + stopPick%(total-1)

		var prefix bytes.Buffer
		m, err := New(mk(&prefix))
		if err != nil {
			t.Fatal(err)
		}
		for m.Dispatched() < stop {
			if ok, err := m.Step(); err != nil || !ok {
				t.Fatalf("step: ok=%v err=%v", ok, err)
			}
		}
		var ckpt bytes.Buffer
		if err := m.Save(&ckpt); err != nil {
			t.Fatalf("save at %d: %v", stop, err)
		}

		var tail bytes.Buffer
		m2, err := Restore(mk(&tail), bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatalf("restore at %d/%d: %v", stop, total, err)
		}
		resB := runToEnd(t, m2)

		fullCanon := canon(t, fullTrace.Bytes())
		combined := append(canon(t, prefix.Bytes()), canon(t, tail.Bytes())...)
		if !bytes.Equal(combined, fullCanon) {
			at, a, b := diffContext(fullCanon, combined)
			t.Fatalf("variant %d seed %d crash at %d/%d: trace diverges at byte %d:\nfull:    ...%s\nresumed: ...%s",
				variant, failSeed, stop, total, at, a, b)
		}
		if resA.Summary != resB.Summary {
			t.Fatalf("variant %d seed %d crash at %d: summaries differ:\nfull:    %+v\nresumed: %+v",
				variant, failSeed, stop, resA.Summary, resB.Summary)
		}
	})
}

// FuzzRestore feeds hostile checkpoint bytes to Restore under the config
// that wrote the seeds: mid-run checkpoints of a run with spares, failures
// and timed migrations, one of them with a migration in flight. Restore
// must never panic, and it may fail only with a named error from the sim
// or snapshot layer.
func FuzzRestore(f *testing.F) {
	for _, at := range []uint64{1, 40, 120} {
		f.Add(midRunCheckpoint(f, func(m *Sim) bool { return m.Dispatched() >= at }))
	}
	f.Add(midRunCheckpoint(f, holding))
	load := mixedLoad()
	f.Fuzz(func(t *testing.T, ckpt []byte) {
		_, err := Restore(snapCfg(load, policy.NewDynamic(), nil), bytes.NewReader(ckpt))
		if err != nil && !strings.HasPrefix(err.Error(), "sim:") && !strings.HasPrefix(err.Error(), "snapshot:") {
			t.Fatalf("restore error %q is neither sim's nor snapshot's", err)
		}
	})
}
