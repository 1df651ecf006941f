package sim

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/spare"
	"repro/internal/workload"
)

// weekPrefix is the first n requests of seed's synthetic week, filtered and
// split into VM requests as `dvmpsim` does.
func weekPrefix(seed int64, n int) []workload.Request {
	jobs := workload.Filter(workload.MustGenerate(workload.DefaultWeekConfig(seed)), workload.DefaultFilter())
	return workload.ToRequests(jobs)[:n]
}

// recordedCfg is a run of placer over reqs on the Table II fleet with
// spares, wrapped in a Recorder, with an observer that writes the run trace
// to run and the decision log to dec.
func recordedCfg(placer policy.Policy, reqs []workload.Request, run, dec *bytes.Buffer) Config {
	sc := spare.DefaultConfig()
	o := obs.New()
	o.Trace, o.Decisions = obs.NewTracer(run), obs.NewTracer(dec)
	return Config{
		DC:       cluster.TableIIFleet(),
		Placer:   policy.NewRecorder(placer, 0),
		Requests: reqs,
		Spare:    &sc,
		Obs:      o,
	}
}

// TestRunLeavesDynamicUntouched: a run's settings — the self-audit, the
// observer, the Recorder's alternatives — live on the run, so a Dynamic a
// run drives stays deep-equal to a fresh NewDynamic, after a whole run and
// after a run resumed from a mid-run checkpoint. The whole run's second
// half and the resumed run go at once, each driving its own Dynamic.
func TestRunLeavesDynamicUntouched(t *testing.T) {
	t.Parallel()
	reqs := weekPrefix(1, untouchedRequests)
	cfg := func(d *policy.Dynamic) Config {
		c := recordedCfg(d, reqs, new(bytes.Buffer), new(bytes.Buffer))
		c.Audit = audit.Event
		return c
	}
	d := policy.NewDynamic()
	m, err := New(cfg(d))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	for m.s.arrived < len(reqs)/2 {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	resumedD := policy.NewDynamic()
	resumed, err := Restore(cfg(resumedD), &ckpt)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg         sync.WaitGroup
		res, resB  *Result
		errA, errB error
	)
	wg.Add(2)
	go func() { defer wg.Done(); res, errA = finishRun(m) }()
	go func() { defer wg.Done(); resB, errB = finishRun(resumed) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("whole run: %v; resumed run: %v", errA, errB)
	}
	if len(res.Moves) == 0 || res.AuditChecks == 0 {
		t.Fatalf("%d moves, %d audit checks: the run exercised nothing", len(res.Moves), res.AuditChecks)
	}
	if fresh := policy.NewDynamic(); !reflect.DeepEqual(d, fresh) {
		t.Errorf("after a run the Dynamic is %+v, a fresh one %+v", *d, *fresh)
	}
	assertSameOutcome(t, res, resB)
	if fresh := policy.NewDynamic(); !reflect.DeepEqual(resumedD, fresh) {
		t.Errorf("after a resumed run the Dynamic is %+v, a fresh one %+v", *resumedD, *fresh)
	}
}

// finishRun steps m to the end of its run and finishes it, returning the
// first error rather than failing a test, so it can run off the test's
// goroutine.
func finishRun(m *Sim) (*Result, error) {
	for {
		ok, err := m.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return m.Finish()
		}
	}
}

// TestRunsShareOneDynamic: two runs on separate fleets, each with its own
// Recorder and observer, drive one *policy.Dynamic at once, and each writes
// the run trace and decision log it writes alone. Under -race this is also the proof that no run writes to
// the Dynamic.
func TestRunsShareOneDynamic(t *testing.T) {
	type run struct {
		reqs     []workload.Request
		run, dec bytes.Buffer
	}
	runs := []*run{{reqs: weekPrefix(1, 300)}, {reqs: weekPrefix(7, 300)}}
	for _, r := range runs {
		if _, err := Run(recordedCfg(policy.NewDynamic(), r.reqs, &r.run, &r.dec)); err != nil {
			t.Fatal(err)
		}
	}

	shared := policy.NewDynamic()
	var wg sync.WaitGroup
	traces := make([][2]bytes.Buffer, len(runs))
	errs := make([]error, len(runs))
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Run(recordedCfg(shared, r.reqs, &traces[i][0], &traces[i][1]))
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(canon(t, traces[i][0].Bytes()), canon(t, r.run.Bytes())) {
			t.Errorf("run %d: the run trace differs from the run's alone", i)
		}
		if !bytes.Equal(canon(t, traces[i][1].Bytes()), canon(t, r.dec.Bytes())) {
			t.Errorf("run %d: the decision log differs from the run's alone", i)
		}
		if r.dec.Len() == 0 || !bytes.Contains(canon(t, r.dec.Bytes()), []byte(`"decision_moves"`)) {
			t.Errorf("run %d recorded no moves", i)
		}
	}
}
