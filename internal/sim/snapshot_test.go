package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
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

// TestSnapshotEventTagNamesNothing: a pending event whose tag names nothing
// the snapshot holds is rejected by name, never restored onto a neighbour
// and never a panic. Each row rewrites the checkpoint's first pending
// arrival (VM n, which has not arrived yet) into one hostile tag: an
// arrival past the workload or of VM 0, a creation or departure of a VM
// the snapshot does not hold, a PM event outside the fleet, a cutover with
// no hold, and a kind no event has.
func TestSnapshotEventTagNamesNothing(t *testing.T) {
	load := mixedLoad()
	fleet := smallFleet().Size()
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
	arrival := regexp.MustCompile(`"tag":\{"k":1,"a":(\d+)\}`)
	first := arrival.FindSubmatch(ckpt.Bytes())
	if first == nil {
		t.Fatal("checkpoint holds no pending arrival to corrupt")
	}
	var n int64
	if _, err := fmt.Sscan(string(first[1]), &n); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		kind uint8
		arg  int64
	}{
		{"arrival of VM 0", evArrival, 0},
		{"arrival past the workload", evArrival, int64(len(load) + 1)},
		{"creation of an unheld VM", evCreationDone, n},
		{"creation past the workload", evCreationDone, int64(len(load) + 1)},
		{"departure of an unheld VM", evDeparture, n},
		{"departure of a negative VM", evDeparture, -1},
		{"boot outside the fleet", evBootDone, int64(fleet)},
		{"shutdown of a negative PM", evShutdownDone, -1},
		{"failure outside the fleet", evFailure, int64(fleet + 3)},
		{"repair far outside the fleet", evRepaired, 1 << 40},
		{"cutover with no hold", evMigCutover, n},
		{"unknown kind", 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := bytes.Replace(ckpt.Bytes(), first[0],
				[]byte(fmt.Sprintf(`"tag":{"k":%d,"a":%d}`, tc.kind, tc.arg)), 1)
			want := fmt.Sprintf("kind %d, arg %d", tc.kind, tc.arg)
			_, err := Restore(snapCfg(load, policy.NewDynamic(), nil), bytes.NewReader(bad))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("restore error = %v, want one naming %q", err, want)
			}
		})
	}
}

// TestSnapshotArrivalRunCorrupt: a checkpoint lists every unfired
// arrival, arrival i under base+i, though a run queues only the next one.
// Restore derives the chain from that run, so a run that would resume
// without a VM, or dispatch one out of order, is refused by naming the
// arrival: one deleted from the middle, one whose seq leaves the run,
// another event holding a seq of the block, and a run that stops short
// of the last request.
func TestSnapshotArrivalRunCorrupt(t *testing.T) {
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
	f, err := snapshot.Read(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var arrivals, others []int // indices into the saved event list
	var st simState
	if err := json.Unmarshal(f.State, &st); err != nil {
		t.Fatal(err)
	}
	for i, ev := range st.Engine.Events {
		switch ev.Tag.Kind {
		case evArrival:
			arrivals = append(arrivals, i)
		case evDeparture, evCreationDone, evBootDone:
			others = append(others, i)
		}
	}
	if len(arrivals) < 4 || len(others) == 0 {
		t.Fatalf("checkpoint holds %d arrivals and %d departures, creations or boots; want 4 and 1", len(arrivals), len(others))
	}
	mid, last := arrivals[2], arrivals[len(arrivals)-1]
	vm := func(i int) int64 { return st.Engine.Events[i].Tag.Arg }
	for _, tc := range []struct {
		name    string
		corrupt func(evs []QueuedEvent) []QueuedEvent
		want    string
	}{
		{"an unfired arrival deleted", func(evs []QueuedEvent) []QueuedEvent {
			return slices.Delete(evs, mid, mid+1)
		}, fmt.Sprintf("arrival of VM %d is missing", vm(mid))},
		{"an arrival's seq out of the run", func(evs []QueuedEvent) []QueuedEvent {
			evs[mid].Seq++
			return evs
		}, fmt.Sprintf("arrival of VM %d has seq %d", vm(mid), st.Engine.Events[mid].Seq+1)},
		{"another event holding a seq of the block", func(evs []QueuedEvent) []QueuedEvent {
			evs[others[0]].Seq = evs[mid].Seq
			return evs
		}, fmt.Sprintf("holds seq %d, the arrival of VM %d's", st.Engine.Events[mid].Seq, vm(mid))},
		{"a run that stops before the last request", func(evs []QueuedEvent) []QueuedEvent {
			return slices.Delete(evs, last, last+1)
		}, fmt.Sprintf("arrival of VM %d is missing", len(load))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := st
			bad.Engine.Events = tc.corrupt(slices.Clone(st.Engine.Events))
			var buf bytes.Buffer
			if err := snapshot.Write(&buf, f.Meta, &bad); err != nil {
				t.Fatal(err)
			}
			_, err := Restore(snapCfg(load, policy.NewDynamic(), nil), bytes.NewReader(buf.Bytes()))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("restore error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotVMOutsideWorkload: a VM record whose ID is no request of the
// workload (the live-VM table is indexed by ID-1) is rejected by name.
func TestSnapshotVMOutsideWorkload(t *testing.T) {
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
	first := regexp.MustCompile(`"vms":\[\{"id":\d+`).Find(ckpt.Bytes())
	if first == nil {
		t.Fatal("checkpoint holds no VM record to corrupt")
	}
	for _, id := range []int{0, len(load) + 1} {
		bad := bytes.Replace(ckpt.Bytes(), first, []byte(fmt.Sprintf(`"vms":[{"id":%d`, id)), 1)
		_, err := Restore(snapCfg(load, policy.NewDynamic(), nil), bytes.NewReader(bad))
		if want := fmt.Sprintf("snapshot VM %d is outside", id); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("VM %d: restore error = %v, want %q", id, err, want)
		}
	}
}

// TestSnapshotDuplicateDepartureIsInert: a checkpoint that queues a VM's
// departure twice names a live VM both times, so it restores; the second
// copy then fires after the VM has left the live table and must do
// nothing — no panic, and the run finishes as the uninterrupted one did.
func TestSnapshotDuplicateDepartureIsInert(t *testing.T) {
	load := mixedLoad()
	ref, err := Run(snapCfg(load, policy.NewDynamic(), nil))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(snapCfg(load, policy.NewDynamic(), nil))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < 80 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	st, err := m.s.captureState()
	if err != nil {
		t.Fatal(err)
	}
	dup := -1
	for i, ev := range st.Engine.Events {
		if ev.Tag.Kind == evDeparture {
			dup = i
			break
		}
	}
	if dup < 0 {
		t.Fatal("checkpoint holds no pending departure to duplicate")
	}
	st.Engine.Seq++
	ev := st.Engine.Events[dup]
	st.Engine.Events = append(st.Engine.Events, QueuedEvent{At: ev.At + 1, Seq: st.Engine.Seq, Tag: ev.Tag})
	slices.SortFunc(st.Engine.Events, compareQueued)
	var ckpt bytes.Buffer
	if err := snapshot.Write(&ckpt, m.s.meta(), st); err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(snapCfg(load, policy.NewDynamic(), nil), &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if res := runToEnd(t, m2); res.Summary != ref.Summary {
		t.Fatalf("summary after a duplicated departure:\n got %+v\nwant %+v", res.Summary, ref.Summary)
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
	if math.Mod(st.LastTime, meterBin) == 0 {
		return false
	}
	for i, pm := range m.s.dc.PMs() {
		if power.Draw(pm) != st.Watts[i] {
			return true
		}
	}
	return false
}

// TestRestoreOldCellSections restores a checkpoint as older builds wrote
// it under Cells > 1: the same version-2 envelope, its state carrying the
// per-cell "cells" and "cell_dispatched" keys. Decoding ignores both, and
// the resumed run finishes on the uninterrupted run's canonical trace.
func TestRestoreOldCellSections(t *testing.T) {
	cfg := func(trace *bytes.Buffer) Config {
		c := crashCfg(fragmentingTrace(60), trace)
		c.Failures.MTBF = 5000
		return c
	}
	var full bytes.Buffer
	ref, err := New(cfg(&full))
	if err != nil {
		t.Fatal(err)
	}
	resA := runToEnd(t, ref)
	fullCanon := canon(t, full.Bytes())

	var prefix bytes.Buffer
	m, err := New(cfg(&prefix))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < ref.Dispatched()/2 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// Spread the dispatch count over six cells, as the old attribution did.
	d := m.Dispatched()
	disp := make([]uint64, 6)
	for i := range disp {
		disp[i] = d / 6
	}
	disp[0] += d % 6
	sections, err := json.Marshal(map[string]any{"cells": 6, "cell_dispatched": disp})
	if err != nil {
		t.Fatal(err)
	}
	state := append(bytes.TrimSuffix(bytes.TrimSpace(f.State), []byte("}")), ',')
	state = append(state, sections[1:]...)
	var old bytes.Buffer
	if err := snapshot.Write(&old, f.Meta, json.RawMessage(state)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old.Bytes(), []byte(`"cell_dispatched":[`)) {
		t.Fatal("old-format checkpoint lacks its cell_dispatched section")
	}

	var tail bytes.Buffer
	m2, err := Restore(cfg(&tail), bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatalf("restore old-format checkpoint: %v", err)
	}
	resB := runToEnd(t, m2)
	combined := append(canon(t, prefix.Bytes()), canon(t, tail.Bytes())...)
	if !bytes.Equal(combined, fullCanon) {
		at, a, b := diffContext(fullCanon, combined)
		t.Fatalf("trace diverges at byte %d:\nfull:    ...%s\nresumed: ...%s", at, a, b)
	}
	if resA.Summary != resB.Summary {
		t.Fatalf("summaries differ:\nfull:    %+v\nresumed: %+v", resA.Summary, resB.Summary)
	}
}

// midRunCheckpoint runs snapCfg's dynamic scheme over mixedLoad — spares,
// failures, timed migrations — until stop holds, and saves a checkpoint
// there.
func midRunCheckpoint(tb testing.TB, stop func(m *Sim) bool) []byte {
	tb.Helper()
	m, err := New(snapCfg(mixedLoad(), policy.NewDynamic(), nil))
	if err != nil {
		tb.Fatal(err)
	}
	for !stop(m) {
		if ok, err := m.Step(); err != nil || !ok {
			tb.Fatalf("step %d: ok=%v err=%v", m.Dispatched(), ok, err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		tb.Fatal(err)
	}
	return ckpt.Bytes()
}

// holding stops a run while a timed migration is in flight.
func holding(m *Sim) bool { return len(m.s.holds) > 0 }

// TestSnapshotHostileRecords: a checkpoint whose VM, hold or PM record
// carries a value cluster code would panic on or misread — a demand that
// fails Validate or has the wrong dimension, a negative time, an unknown
// state, a VM whose chunk slot an earlier record filled — is refused by an
// error naming the record.
func TestSnapshotHostileRecords(t *testing.T) {
	f, err := snapshot.Read(bytes.NewReader(midRunCheckpoint(t, holding)))
	if err != nil {
		t.Fatal(err)
	}
	var st simState
	if err := json.Unmarshal(f.State, &st); err != nil {
		t.Fatal(err)
	}
	vm, hold, pm := st.VMs[0].ID, st.Holds[0].VM, st.PMs[0].ID
	for _, tc := range []struct {
		name    string
		corrupt func(st *simState)
		want    string
	}{
		{"VM demand negative", func(st *simState) { st.VMs[0].Demand[0] = -1 },
			fmt.Sprintf("sim: snapshot VM %d demand: vector: component 0 is negative", vm)},
		{"VM demand of one dimension", func(st *simState) { st.VMs[0].Demand = st.VMs[0].Demand[:1] },
			fmt.Sprintf("sim: snapshot VM %d demand: dimension 1", vm)},
		{"VM est negative", func(st *simState) { st.VMs[0].Est = -1 },
			fmt.Sprintf("sim: snapshot VM %d has a negative time", vm)},
		{"VM actual negative", func(st *simState) { st.VMs[0].Actual = -1 },
			fmt.Sprintf("sim: snapshot VM %d has a negative time", vm)},
		{"VM submit negative", func(st *simState) { st.VMs[0].Submit = -1 },
			fmt.Sprintf("sim: snapshot VM %d has a negative time", vm)},
		{"VM state unknown", func(st *simState) { st.VMs[0].State = 5 },
			fmt.Sprintf("sim: snapshot VM %d has unknown state 5", vm)},
		{"VM listed twice", func(st *simState) { st.VMs = append(st.VMs, st.VMs[0]) },
			fmt.Sprintf("sim: snapshot lists VM %d twice", vm)},
		{"hold demand negative", func(st *simState) { st.Holds[0].Demand[1] = -1 },
			fmt.Sprintf("sim: snapshot hold of VM %d demand: vector: component 1 is negative", hold)},
		{"hold demand of one dimension", func(st *simState) { st.Holds[0].Demand = st.Holds[0].Demand[:1] },
			fmt.Sprintf("sim: snapshot hold of VM %d demand: dimension 1", hold)},
		{"PM state unknown", func(st *simState) { st.PMs[0].State = -1 },
			fmt.Sprintf("sim: snapshot PM %d has unknown state -1", pm)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := st
			bad.VMs, bad.Holds, bad.PMs = slices.Clone(st.VMs), slices.Clone(st.Holds), slices.Clone(st.PMs)
			bad.VMs[0].Demand, bad.Holds[0].Demand = slices.Clone(st.VMs[0].Demand), slices.Clone(st.Holds[0].Demand)
			tc.corrupt(&bad)
			var buf bytes.Buffer
			if err := snapshot.Write(&buf, f.Meta, &bad); err != nil {
				t.Fatal(err)
			}
			_, err := Restore(snapCfg(mixedLoad(), policy.NewDynamic(), nil), &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("restore error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotContradictoryRecords: records that are each valid but
// contradict one another are refused, with an error naming the VM: by the
// per-event checks Restore runs once on the rebuilt state, then by its
// check that every held VM is migrating. Restored, the first row would
// panic on the first Step, and the others would run to Finish. A held VM's
// host relabelled booting still restores: no per-event check ties a
// transitional state to its event yet.
func TestSnapshotContradictoryRecords(t *testing.T) {
	f, err := snapshot.Read(bytes.NewReader(midRunCheckpoint(t, holding)))
	if err != nil {
		t.Fatal(err)
	}
	var st simState
	if err := json.Unmarshal(f.State, &st); err != nil {
		t.Fatal(err)
	}
	held := st.Holds[0].VM
	i := slices.IndexFunc(st.VMs, func(vs vmState) bool { return vs.ID == held })
	if i < 0 || st.VMs[i].Host == cluster.NoPM {
		t.Fatalf("held VM %d has no placed record", held)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(st *simState)
		want    string
	}{
		{"queue lists a placed VM", func(st *simState) { st.Queue = append(st.Queue, held) },
			fmt.Sprintf("audit: drain at t=%.3f: queued VM %d is migrating on PM %d", st.Engine.Now, held, st.VMs[i].Host)},
		{"held VM relabelled queued", func(st *simState) { st.VMs[i].State = int(cluster.VMQueued) },
			fmt.Sprintf("audit: state at t=%.3f: PM %d hosts VM %d in non-placed state queued", st.Engine.Now, st.VMs[i].Host, held)},
		{"held VM relabelled finished", func(st *simState) { st.VMs[i].State = int(cluster.VMFinished) },
			fmt.Sprintf("audit: state at t=%.3f: PM %d hosts VM %d in non-placed state finished", st.Engine.Now, st.VMs[i].Host, held)},
		{"held VM relabelled running", func(st *simState) { st.VMs[i].State = int(cluster.VMRunning) },
			fmt.Sprintf("the hold of VM %d, which is running, not migrating", held)},
		{"held VM relabelled creating", func(st *simState) { st.VMs[i].State = int(cluster.VMCreating) },
			fmt.Sprintf("the hold of VM %d, which is creating, not migrating", held)},
		{"held VM's host relabelled booting", func(st *simState) { st.PMs[st.VMs[i].Host].State = int(cluster.PMBooting) },
			fmt.Sprintf("PM %d is booting with no boot event", st.VMs[i].Host)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := st
			bad.VMs, bad.Queue, bad.PMs = slices.Clone(st.VMs), slices.Clone(st.Queue), slices.Clone(st.PMs)
			tc.corrupt(&bad)
			var buf bytes.Buffer
			if err := snapshot.Write(&buf, f.Meta, &bad); err != nil {
				t.Fatal(err)
			}
			_, err := Restore(snapCfg(mixedLoad(), policy.NewDynamic(), nil), &buf)
			if want := "sim: snapshot state contradicts itself: " + tc.want; err == nil || err.Error() != want {
				t.Errorf("restore error = %v, want %q", err, want)
			}
		})
	}
}
