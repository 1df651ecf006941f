package sim

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/snapshot"
	"repro/internal/spare"
	"repro/internal/workload"
)

// snapCfg is the full-featured configuration the checkpoint tests run
// under: spare controller, failure injection, timed migrations, warm
// start — every subsystem whose state a snapshot must carry.
func snapCfg(reqs []workload.Request, placer policy.Policy, trace *bytes.Buffer) Config {
	sc := spare.DefaultConfig()
	cfg := Config{
		DC:       smallFleet(),
		Placer:   placer,
		Requests: reqs,
		Spare:    &sc,
		Failures: failure.Config{
			MTBF: 4e4, RepairTime: 5000, Seed: 11,
			ReliabilityDecay: 0.9, MinReliability: 0.5,
		},
		TimedMigrations: true,
		WarmStart:       2,
	}
	if trace != nil {
		cfg.Obs = obs.NewTracing(trace)
	}
	return cfg
}

func runToEnd(t *testing.T, m *Sim) *Result {
	t.Helper()
	for {
		ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func canon(t *testing.T, b []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := obs.Canonicalize(bytes.NewReader(b), &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func diffContext(a, b []byte) (int, string, string) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	at := 0
	for at < n && a[at] == b[at] {
		at++
	}
	lo := at - 160
	if lo < 0 {
		lo = 0
	}
	cut := func(s []byte) string {
		hi := at + 160
		if hi > len(s) {
			hi = len(s)
		}
		if lo > len(s) {
			return ""
		}
		return string(s[lo:hi])
	}
	return at, cut(a), cut(b)
}

func assertSameOutcome(t *testing.T, resA, resB *Result) {
	t.Helper()
	if resA.Summary != resB.Summary {
		t.Fatalf("summaries differ:\nfull:    %+v\nresumed: %+v", resA.Summary, resB.Summary)
	}
	if len(resA.Moves) != len(resB.Moves) {
		t.Fatalf("move counts differ: %d vs %d", len(resA.Moves), len(resB.Moves))
	}
	for i := range resA.Moves {
		if resA.Moves[i] != resB.Moves[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, resA.Moves[i], resB.Moves[i])
		}
	}
	if len(resA.SparePlans) != len(resB.SparePlans) {
		t.Fatalf("spare plan counts differ: %d vs %d", len(resA.SparePlans), len(resB.SparePlans))
	}
	for i := range resA.SparePlans {
		if resA.SparePlans[i] != resB.SparePlans[i] {
			t.Fatalf("spare plan %d differs: %+v vs %+v", i, resA.SparePlans[i], resB.SparePlans[i])
		}
	}
	for _, pair := range []struct {
		name string
		a, b []float64
	}{
		{"active PMs", resA.ActivePMs.Values, resB.ActivePMs.Values},
		{"mean utilization", resA.MeanUtilization.Values, resB.MeanUtilization.Values},
		{"energy", resA.EnergyKWh.Values, resB.EnergyKWh.Values},
	} {
		if len(pair.a) != len(pair.b) {
			t.Fatalf("%s series lengths differ: %d vs %d", pair.name, len(pair.a), len(pair.b))
		}
		for i := range pair.a {
			if pair.a[i] != pair.b[i] {
				t.Fatalf("%s series differs at %d: %v vs %v", pair.name, i, pair.a[i], pair.b[i])
			}
		}
	}
	if resA.Failures != resB.Failures {
		t.Fatalf("failure counts differ: %d vs %d", resA.Failures, resB.Failures)
	}
}

// TestSnapshotResumeBitExact is the tentpole acceptance test: a run
// checkpointed at an arbitrary event boundary and resumed in a "fresh
// process" (fresh datacenter, fresh observer, fresh engine) must produce
// the uninterrupted run's canonical trace byte-for-byte — the prefix
// written before the checkpoint concatenated with the resumed tail — and
// an identical Result.
func TestSnapshotResumeBitExact(t *testing.T) {
	load := mixedLoad()
	placer := func() policy.Policy { return policy.NewDynamic() }

	var fullTrace bytes.Buffer
	probe, err := New(snapCfg(load, placer(), &fullTrace))
	if err != nil {
		t.Fatal(err)
	}
	resA := runToEnd(t, probe)
	total := probe.Dispatched()
	fullCanon := canon(t, fullTrace.Bytes())

	for _, stopAfter := range []uint64{1, total / 4, total / 2, total - 1} {
		var prefix bytes.Buffer
		m, err := New(snapCfg(load, placer(), &prefix))
		if err != nil {
			t.Fatal(err)
		}
		for m.Dispatched() < stopAfter {
			ok, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("run drained before %d events; shrink the stop points", stopAfter)
			}
		}
		var ckpt bytes.Buffer
		if err := m.Save(&ckpt); err != nil {
			t.Fatalf("save at %d: %v", stopAfter, err)
		}

		var tail bytes.Buffer
		m2, err := Restore(snapCfg(load, placer(), &tail), bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatalf("restore at %d: %v", stopAfter, err)
		}
		if m2.Dispatched() != stopAfter {
			t.Fatalf("restored run at %d dispatched, want %d", m2.Dispatched(), stopAfter)
		}
		resB := runToEnd(t, m2)

		combined := append(canon(t, prefix.Bytes()), canon(t, tail.Bytes())...)
		if !bytes.Equal(combined, fullCanon) {
			at, a, b := diffContext(fullCanon, combined)
			t.Fatalf("checkpoint at event %d: resumed trace diverges at byte %d:\nfull:    ...%s\nresumed: ...%s",
				stopAfter, at, a, b)
		}
		assertSameOutcome(t, resA, resB)
	}
}

// TestSnapshotResumeRandomPlacer covers the placer-RNG stream: the random
// scheme draws from its own stream on every placement, so a resume that
// failed to carry the stream state would diverge immediately.
func TestSnapshotResumeRandomPlacer(t *testing.T) {
	load := mixedLoad()

	var fullTrace bytes.Buffer
	resA, err := Run(snapCfg(load, policy.NewRandom(7), &fullTrace))
	if err != nil {
		t.Fatal(err)
	}

	var prefix bytes.Buffer
	m, err := New(snapCfg(load, policy.NewRandom(7), &prefix))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < 150 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}

	// The resumed placer is seeded DIFFERENTLY on purpose: restore must
	// overwrite the fresh stream with the checkpointed one, so the seed
	// the resuming process happens to pass cannot matter.
	var tail bytes.Buffer
	m2, err := Restore(snapCfg(load, policy.NewRandom(99), &tail), bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resB := runToEnd(t, m2)

	combined := append(canon(t, prefix.Bytes()), canon(t, tail.Bytes())...)
	var full bytes.Buffer
	if err := obs.Canonicalize(bytes.NewReader(fullTrace.Bytes()), &full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(combined, full.Bytes()) {
		at, a, b := diffContext(full.Bytes(), combined)
		t.Fatalf("random-placer resume diverges at byte %d:\nfull:    ...%s\nresumed: ...%s", at, a, b)
	}
	assertSameOutcome(t, resA, resB)
}

// TestSnapshotAuditCheck runs a full audited simulation: the auditor's
// "snapshot" check save→restore→re-saves the entire run state at every
// control period and fails the run on the first byte of divergence.
func TestSnapshotAuditCheck(t *testing.T) {
	cfg := snapCfg(mixedLoad(), policy.NewDynamic(), nil)
	cfg.Audit = audit.Period
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuditChecks == 0 {
		t.Fatal("audited run reported zero checks")
	}
}

// TestSnapshotMetaMismatch: a checkpoint must refuse to restore under a
// configuration that differs from the one that wrote it.
func TestSnapshotMetaMismatch(t *testing.T) {
	load := mixedLoad()
	m, err := New(snapCfg(load, policy.NewDynamic(), nil))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < 100 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Different scheme.
	if _, err := Restore(snapCfg(load, policy.NewThreshold(), nil), bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Fatal("restore under a different placement scheme succeeded")
	}
	// Different workload.
	if _, err := Restore(snapCfg(load[:len(load)-1], policy.NewDynamic(), nil), bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Fatal("restore under a truncated workload succeeded")
	}
	// Different control knob.
	cfg := snapCfg(load, policy.NewDynamic(), nil)
	cfg.TimedMigrations = false
	if _, err := Restore(cfg, bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Fatal("restore with timed migrations toggled succeeded")
	}
	// The matching configuration still restores.
	if _, err := Restore(snapCfg(load, policy.NewDynamic(), nil), bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("restore under the original configuration failed: %v", err)
	}
}

// TestSnapshotVersionMismatch: a checkpoint from a future, corrupted or
// past format version — version 1 carried no lazy meter state — is
// rejected at the envelope layer, naming its version.
func TestSnapshotVersionMismatch(t *testing.T) {
	m, err := New(snapCfg(mixedLoad(), policy.NewDynamic(), nil))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < 50 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{99, 1} {
		bad := bytes.Replace(ckpt.Bytes(),
			[]byte(fmt.Sprintf(`"version":%d`, snapshot.Version)), []byte(fmt.Sprintf(`"version":%d`, v)), 1)
		if bytes.Equal(bad, ckpt.Bytes()) {
			t.Fatal("test did not find the version field to corrupt")
		}
		want := fmt.Sprintf("format version %d not supported", v)
		if _, err := Restore(snapCfg(mixedLoad(), policy.NewDynamic(), nil), bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("restore of a version-%d checkpoint: error = %v, want %q", v, err, want)
		}
		if _, err := snapshot.Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("snapshot.Read accepted format version %d", v)
		}
	}
}

// TestSnapshotArrivalTagOutOfRange: a pending arrival whose tag names no
// request of the configured workload — past its end, or VM 0 — is rejected
// by name rather than restored onto a neighbouring request.
func TestSnapshotArrivalTagOutOfRange(t *testing.T) {
	load := mixedLoad()
	m, err := New(snapCfg(load, policy.NewDynamic(), nil))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < 50 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	arrival := regexp.MustCompile(`"tag":\{"k":1,"a":\d+\}`)
	if !arrival.Match(ckpt.Bytes()) {
		t.Fatal("checkpoint holds no pending arrival to corrupt")
	}
	for _, arg := range []int{0, len(load) + 1} {
		done := false
		bad := arrival.ReplaceAllFunc(ckpt.Bytes(), func(tag []byte) []byte {
			if done {
				return tag
			}
			done = true
			return []byte(fmt.Sprintf(`"tag":{"k":1,"a":%d}`, arg))
		})
		_, err := Restore(snapCfg(load, policy.NewDynamic(), nil), bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("kind 1, arg %d", arg)) {
			t.Errorf("arrival tag %d: restore error = %v, want the event named", arg, err)
		}
	}
}

// TestSnapshotSaveDeterministic: saving the same state twice yields the
// same bytes — the property the golden fixture and the audit round-trip
// both stand on.
func TestSnapshotSaveDeterministic(t *testing.T) {
	m, err := New(snapCfg(mixedLoad(), policy.NewDynamic(), nil))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < 200 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	var a, b bytes.Buffer
	if err := m.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same state differ")
	}
}

// TestSnapshotResumeWithPendingMeterChange checkpoints a run mid-bin at the
// first boundary where the energy meter holds a change it has not charged
// yet — a PM whose draw moved during the last event — and requires the
// resumed run to reproduce the uninterrupted one bit for bit, every PM's
// energy included. Save must not charge the pending change: charging it
// early splits the meter's work differently from the run that never saved.
func TestSnapshotResumeWithPendingMeterChange(t *testing.T) {
	static := func() Config {
		cfg := staticFleetConfig(t, "first-fit", 3)
		cfg.Requests = cfg.Requests[:1500]
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"dynamic with spares, failures and timed migrations", func() Config {
			return snapCfg(mixedLoad(), policy.NewDynamic(), nil)
		}},
		{"first-fit on 1,000 PMs", static},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resA, err := Run(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			for !meterHasPendingChange(m, 200) {
				if ok, err := m.Step(); err != nil || !ok {
					t.Fatalf("step %d: ok=%v err=%v; no pending meter change mid-bin", m.Dispatched(), ok, err)
				}
			}
			t.Logf("saved at event %d, t=%g", m.Dispatched(), m.s.eng.Now())
			var ckpt bytes.Buffer
			if err := m.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
			m2, err := Restore(tc.cfg(), bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			resB := runToEnd(t, m2)
			assertSameOutcome(t, resA, resB)
			for id, e := range resA.PMEnergyKWh {
				if resB.PMEnergyKWh[id] != e {
					t.Fatalf("saved at event %d: PM %d energy %v kWh, uninterrupted %v", m.Dispatched(), id, resB.PMEnergyKWh[id], e)
				}
			}
		})
	}
}

// meterHasPendingChange reports whether, after at least min events, the
// run sits between two hour marks with some PM drawing other than what its
// meter charges: a change the next advance will pick up.
func meterHasPendingChange(m *Sim, min uint64) bool {
	if m.Dispatched() < min {
		return false
	}
	st := m.s.meter.State()
	if math.Mod(st.LastTime, m.s.cfg.MeterBin) == 0 {
		return false
	}
	for i, pm := range m.s.dc.PMs() {
		if power.Draw(pm) != st.Watts[i] {
			return true
		}
	}
	return false
}
