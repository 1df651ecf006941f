package policy

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vector"
)

// obsCtx attaches a decision-tracing observer to a test context and
// returns the decision buffer.
func obsCtx(ctx *core.Context) *bytes.Buffer {
	var dec bytes.Buffer
	o := obs.New()
	o.Decisions = obs.NewTracer(&dec)
	ctx.Obs = o
	return &dec
}

func TestByNameNewSchemes(t *testing.T) {
	for _, name := range []string{"overbook", "dynamic-adaptive"} {
		p, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, p.Name())
		}
		if _, ok := p.(Policy); !ok {
			t.Errorf("%s is not a full Policy", name)
		}
	}
	if _, err := ByName("bogus", 1); err == nil || !strings.Contains(err.Error(), "overbook") {
		t.Errorf("unknown-scheme error should list overbook: %v", err)
	}
}

func TestUnwrapHelpers(t *testing.T) {
	a := NewAdaptive()
	if d, ok := DynamicOf(a); !ok || d != a.Dynamic {
		t.Error("DynamicOf failed to unwrap Adaptive")
	}
	rec := NewRecorder(a, 0)
	if d, ok := DynamicOf(rec); !ok || d != a.Dynamic {
		t.Error("DynamicOf failed to unwrap Recorder(Adaptive)")
	}
	r := NewRandom(7)
	if got, ok := RandomOf(NewRecorder(r, 2)); !ok || got != r {
		t.Error("RandomOf failed to unwrap Recorder(Random)")
	}
	if _, ok := DynamicOf(FirstFit{}); ok {
		t.Error("DynamicOf found a Dynamic inside FirstFit")
	}
	rp := NewReplay(nil, NewDynamic())
	if _, ok := DynamicOf(rp); !ok {
		t.Error("DynamicOf failed to unwrap Replay")
	}
}

// loadedFleet builds one fast PM (capacity 8x8) per load, all on, each
// hosting one running VM of its load (none for a zero load).
func loadedFleet(t *testing.T, loads ...vector.V) *core.Context {
	t.Helper()
	d, ctx := thresholdDC(t, len(loads))
	for i, load := range loads {
		if !load.IsZero() {
			hostRunning(t, d.PM(cluster.PMID(i)), cluster.VMID(100+i), load[0], load[1])
		}
	}
	return ctx
}

func TestAlternativesHeadMatchesPlace(t *testing.T) {
	// For deterministic schemes the top alternative must be Place's
	// choice — the decision log's invariant the counterfactual UI leans
	// on. (Random is exempt: its Alternatives are the candidate set, not
	// a prediction of the draw.)
	every := []Policy{FirstFit{}, BestFit{}, WorstFit{}, NewThreshold(), NewDynamic(), NewOverbook()}
	for _, fx := range []struct {
		name    string
		loads   []vector.V
		demand  vector.V
		schemes []Policy
	}{
		{"one loaded PM", []vector.V{vector.New(0, 0), vector.New(4, 4), vector.New(0, 0)}, vector.New(2, 2), every},
		{"every PM tied", []vector.V{vector.New(2, 2), vector.New(2, 2), vector.New(2, 2)}, vector.New(2, 2), every},
		// 7.5/8 and 8/8 after placement, both over Hi = 0.9.
		{"every PM over Hi", []vector.V{vector.New(6.5, 6.5), vector.New(7, 7)}, vector.New(1, 0.5), []Policy{NewThreshold()}},
		// Booked at 1.25x, (8.125, 9.375) and (8.75, 8.75) after placement:
		// neither host can book the demand, both fit it physically.
		{"every PM fully booked", []vector.V{vector.New(5.5, 6.5), vector.New(6, 6)}, vector.New(1, 1), []Policy{NewOverbook()}},
	} {
		for _, p := range fx.schemes {
			ctx := loadedFleet(t, fx.loads...)
			vm := cluster.NewVM(1, fx.demand, 100000, 100000, 0)
			alts := p.Alternatives(ctx, vm, 0)
			chosen := p.Place(ctx, vm)
			if chosen == nil {
				t.Fatalf("%s, %s: no placement in the test fleet", fx.name, p.Name())
			}
			if len(alts) == 0 || alts[0].PM.ID != chosen.ID {
				t.Errorf("%s, %s: alternatives head %v, Place chose PM%d", fx.name, p.Name(), alts, chosen.ID)
			}
			listed := map[cluster.PMID]bool{}
			for _, a := range alts {
				if listed[a.PM.ID] || !a.PM.CanHost(fx.demand) {
					t.Errorf("%s, %s: alternatives %v list PM%d twice or where it cannot host", fx.name, p.Name(), alts, a.PM.ID)
				}
				listed[a.PM.ID] = true
			}
		}
	}
}

func TestRandomAlternativesDoNotConsumeRNG(t *testing.T) {
	r := NewRandom(42)
	_, ctx := dc(t)
	before := r.RNGState()
	r.Alternatives(ctx, newVM(1), 5)
	if r.RNGState() != before {
		t.Error("Alternatives advanced the RNG stream")
	}
}

func TestStockSpareTargetIsPassthrough(t *testing.T) {
	_, ctx := dc(t)
	for _, p := range []Policy{FirstFit{}, BestFit{}, WorstFit{}, NewRandom(1), NewThreshold(), NewDynamic(), NewAdaptive()} {
		if got := p.SpareTarget(ctx, 5); got != 5 {
			t.Errorf("%s.SpareTarget(5) = %d, want 5", p.Name(), got)
		}
	}
}

func TestOverbookSpareTarget(t *testing.T) {
	o := NewOverbook()
	_, ctx := dc(t)
	if got := o.SpareTarget(ctx, 6); got != 5 { // ceil(6/1.2)
		t.Errorf("SpareTarget(6) = %d, want 5", got)
	}
	if got := o.SpareTarget(ctx, 0); got != 0 {
		t.Errorf("SpareTarget(0) = %d, want 0", got)
	}
	if got := (&Overbook{Ratio: 1, Inflation: 1, Watermark: 0.9}).SpareTarget(ctx, 4); got != 4 {
		t.Errorf("ratio-1 SpareTarget(4) = %d, want 4", got)
	}
}

func TestOverbookPlacementStaysPhysicallyFeasible(t *testing.T) {
	// Booked charges are >= actual demand (Inflation >= Ratio), so any
	// booked-feasible choice must also be physically feasible; the
	// fallback path covers the fully-booked case. Place a stream of VMs
	// until nothing fits and assert every choice could really host.
	o := NewOverbook()
	_, ctx := dc(t)
	ctx.Obs = obs.New()
	placed := 0
	for id := cluster.VMID(1); id < 40; id++ {
		vm := newVM(id)
		pm := o.Place(ctx, vm)
		if pm == nil {
			break
		}
		placed++
		if !pm.CanHost(vm.Demand) {
			t.Fatalf("overbook chose physically infeasible PM%d for VM%d", pm.ID, id)
		}
		if err := pm.Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
	}
	// Each (2, 2) VM books 2.5 of either resource: the three 8x8 hosts
	// (one holding 4, 4) book 3 + 1 + 3 of them and hold 4 + 2 + 4, so
	// the last three placements are fallbacks.
	if got := ctx.Obs.Reg.Counter("policy.overbook_fallback").Value(); placed != 10 || got != 3 {
		t.Errorf("placed %d VMs, %d by fallback; want 10, 3", placed, got)
	}
}

func TestOverbookViolationAccounting(t *testing.T) {
	o := &Overbook{Ratio: 1, Inflation: 1, Watermark: 0.5}
	_, ctx := dc(t)
	ob := obs.New()
	ctx.Obs = ob
	vm := cluster.NewVM(1, vector.New(6, 6), 1000, 1000, 0)
	if pm := o.Place(ctx, vm); pm == nil {
		t.Fatal("no placement")
	}
	if got := ob.Reg.Counter("policy.overbook_violations").Value(); got != 1 {
		t.Errorf("violations = %d, want 1 (placement pushed past the 0.5 watermark)", got)
	}
}

func TestAdaptiveThresholdWalk(t *testing.T) {
	a := NewAdaptive()
	if got := a.cur; got != 1.05 {
		t.Fatalf("initial threshold %g, want the dynamic default 1.05", got)
	}
	st := a.State()
	if st.Threshold != 1.05 || st.Idle != 0 {
		t.Errorf("State = %+v", st)
	}
	if err := a.RestoreState(AdaptiveState{Threshold: 1.10, Idle: 3}); err != nil {
		t.Fatal(err)
	}
	if a.cur != 1.10 || a.idle != 3 {
		t.Errorf("restore did not land: cur=%g idle=%d", a.cur, a.idle)
	}
	if err := a.RestoreState(AdaptiveState{Threshold: 2.0}); err == nil {
		t.Error("RestoreState accepted an out-of-range threshold")
	}
	if err := a.RestoreState(AdaptiveState{Threshold: 1.05, Idle: -1}); err == nil {
		t.Error("RestoreState accepted a negative idle count")
	}

	// Empty passes relax the threshold after IdleWindow of them.
	_, ctx := dc(t)
	ctx.Obs = obs.New()
	if err := a.RestoreState(AdaptiveState{Threshold: 1.05}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.IdleWindow; i++ {
		if _, err := a.Consolidate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.cur; got >= 1.05 {
		t.Errorf("threshold %g did not relax after %d idle passes", got, a.IdleWindow)
	}
	if a.idle != 0 {
		t.Errorf("idle counter %d not reset after a step", a.idle)
	}
}

func TestRecorderEmitsDecisions(t *testing.T) {
	_, ctx := dc(t)
	dec := obsCtx(ctx)
	rec := NewRecorder(BestFit{}, 2)
	vm := newVM(1)
	pm := rec.Place(ctx, vm)
	if pm == nil || pm.ID != 1 {
		t.Fatalf("recorder changed the decision: %v", pm)
	}
	if n := rec.SpareTarget(ctx, 3); n != 3 {
		t.Fatalf("recorder changed the spare target: %d", n)
	}
	if _, err := rec.Consolidate(ctx); err != nil { // zero moves: not recorded
		t.Fatal(err)
	}
	log, err := ParseDecisionLog(bytes.NewReader(dec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("got %d records, want 2 (place + spare; empty pass unrecorded): %s", len(log), dec.String())
	}
	if log[0].Kind != KindPlace || log[0].VM != 1 || log[0].PM != 1 {
		t.Errorf("place record = %+v", log[0])
	}
	if len(log[0].Alts) == 0 || log[0].Alts[0].PM != 1 {
		t.Errorf("place alternatives = %+v", log[0].Alts)
	}
	if log[1].Kind != KindSpare || log[1].Tick != 0 || log[1].Baseline != 3 || log[1].Spares != 3 {
		t.Errorf("spare record = %+v", log[1])
	}

	// Counter state round-trips.
	st := rec.State()
	if st.Calls != 1 || st.Ticks != 1 {
		t.Errorf("State = %+v", st)
	}
	rec2 := NewRecorder(BestFit{}, 2)
	rec2.RestoreState(st)
	if rec2.call != 1 || rec2.tick != 1 {
		t.Errorf("RestoreState did not land: %d/%d", rec2.call, rec2.tick)
	}
}

func TestRecorderQueuedPlacement(t *testing.T) {
	_, ctx := dc(t)
	dec := obsCtx(ctx)
	rec := NewRecorder(FirstFit{}, 2)
	huge := cluster.NewVM(1, vector.New(100, 100), 10, 10, 0)
	if pm := rec.Place(ctx, huge); pm != nil {
		t.Fatalf("placed an impossible VM on %v", pm)
	}
	log, err := ParseDecisionLog(bytes.NewReader(dec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].PM != -1 || len(log[0].Alts) != 0 {
		t.Fatalf("queued record = %+v", log)
	}
}

func TestCaptureRestorePlacerState(t *testing.T) {
	if st := CaptureState(NewDynamic()); st != nil {
		t.Errorf("stateless placer captured %+v", st)
	}
	a := NewAdaptive()
	if err := a.RestoreState(AdaptiveState{Threshold: 1.12, Idle: 2}); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(a, 0)
	rec.call, rec.tick = 9, 4
	st := CaptureState(rec)
	if st == nil || st.Recorder == nil || st.Adaptive == nil {
		t.Fatalf("CaptureState = %+v", st)
	}
	if st.Recorder.Calls != 9 || st.Adaptive.Threshold != 1.12 {
		t.Errorf("captured %+v / %+v", st.Recorder, st.Adaptive)
	}
	fresh := NewRecorder(NewAdaptive(), 0)
	if err := RestoreState(fresh, st); err != nil {
		t.Fatal(err)
	}
	if fresh.call != 9 || fresh.tick != 4 {
		t.Errorf("recorder counters not restored: %d/%d", fresh.call, fresh.tick)
	}
	if got := fresh.P.(*Adaptive).cur; got != 1.12 {
		t.Errorf("adaptive threshold not restored: %g", got)
	}
	// Lenient on mismatched chains and nil state.
	if err := RestoreState(FirstFit{}, st); err != nil {
		t.Errorf("mismatched chain errored: %v", err)
	}
	if err := RestoreState(fresh, nil); err != nil {
		t.Errorf("nil state errored: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, ctx := dc(t)
	alts := []core.Placement{
		{PM: ctx.DC.PM(0), Probability: 1.25},
		{PM: ctx.DC.PM(2), Probability: math.Inf(1)},
	}
	s := renderCompound(t, appendAlts(nil, alts))
	back, err := parseAlts(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].PM != 0 || back[0].Score != 1.25 ||
		back[1].PM != 2 || !math.IsInf(back[1].Score, 1) {
		t.Fatalf("alts %q decoded to %+v", s, back)
	}
	moves := []core.Move{
		{VM: 7, From: 1, To: 2, Gain: math.Inf(1), Round: 1},
		{VM: 9, From: 0, To: 1, Gain: 1.0625, Round: 2},
	}
	ms := renderCompound(t, appendMoves(nil, moves, [][]core.Placement{alts, nil}))
	mback, err := parseMoves(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(mback) != 2 || mback[0].VM != 7 || !math.IsInf(mback[0].Gain, 1) ||
		len(mback[0].Alts) != 2 || mback[1].Gain != 1.0625 || len(mback[1].Alts) != 0 {
		t.Fatalf("moves %q decoded to %+v", ms, mback)
	}
	for _, bad := range []string{"x", "1:2:3", "1:2:3:x:5"} {
		if _, err := parseMoves(bad); err == nil {
			t.Errorf("parseMoves accepted %q", bad)
		}
	}
	if _, err := parseAlts("nope"); err == nil {
		t.Error("parseAlts accepted a pair without =")
	}
}

func TestReplayReproducesAndOverrides(t *testing.T) {
	// Record a placement sequence with best-fit, then replay it on an
	// identical fleet: identical choices. Then replay with an override
	// and observe the counterfactual placement.
	record := func() ([]Decision, []cluster.PMID) {
		_, ctx := dc(t)
		dec := obsCtx(ctx)
		rec := NewRecorder(BestFit{}, 3)
		var chose []cluster.PMID
		for id := cluster.VMID(1); id <= 3; id++ {
			vm := newVM(id)
			pm := rec.Place(ctx, vm)
			if pm == nil {
				t.Fatal("unexpected queue")
			}
			chose = append(chose, pm.ID)
			if err := pm.Host(vm); err != nil {
				t.Fatal(err)
			}
			vm.State = cluster.VMRunning
			rec.SpareTarget(ctx, int(id))
		}
		log, err := ParseDecisionLog(bytes.NewReader(dec.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return log, chose
	}
	log, chose := record()

	rp := NewReplay(log, BestFit{})
	_, ctx := dc(t)
	ctx.Obs = obs.New()
	for i, id := range []cluster.VMID{1, 2, 3} {
		vm := newVM(id)
		pm := rp.Place(ctx, vm)
		if pm == nil || pm.ID != chose[i] {
			t.Fatalf("replay placed VM%d on %v, recorded PM%d", id, pm, chose[i])
		}
		if err := pm.Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
		if got := rp.SpareTarget(ctx, int(id)); got != int(id) {
			t.Fatalf("replay spare target %d, recorded %d", got, id)
		}
	}
	if rp.Diverged() || rp.Err() != nil {
		t.Fatalf("clean replay diverged: %v", rp.Err())
	}

	// Counterfactual: substitute alternative #1 of the first placement.
	if len(log[0].Alts) < 2 {
		t.Fatalf("first record has no alternative to substitute: %+v", log[0].Alts)
	}
	rp2 := NewReplay(log, BestFit{})
	rp2.Override = &ReplayOverride{Index: 0, Alt: 1}
	_, ctx2 := dc(t)
	ctx2.Obs = obs.New()
	pm := rp2.Place(ctx2, newVM(1))
	if pm == nil || pm.ID != log[0].Alts[1].PM {
		t.Fatalf("override placed on %v, want alternative PM%d", pm, log[0].Alts[1].PM)
	}
	if !rp2.Diverged() || rp2.Err() != nil {
		t.Errorf("override should diverge deliberately (err nil): %v / %v", rp2.Diverged(), rp2.Err())
	}
}

func TestReplayDetectsDivergence(t *testing.T) {
	_, ctx := dc(t)
	ctx.Obs = obs.New()
	// Wrong VM in the next record.
	rp := NewReplay([]Decision{{Kind: KindPlace, VM: 99, PM: 0}}, BestFit{})
	if pm := rp.Place(ctx, newVM(1)); pm == nil {
		t.Fatal("fallback did not place")
	}
	if !rp.Diverged() || rp.Err() == nil {
		t.Error("wrong-VM record did not flag divergence")
	}
	// Exhausted log.
	rp2 := NewReplay(nil, BestFit{})
	rp2.Place(ctx, newVM(2))
	if rp2.Err() == nil {
		t.Error("exhausted log did not flag divergence")
	}
	// Missing spare record is divergence (unlike a missing moves record).
	rp3 := NewReplay(nil, BestFit{})
	if got := rp3.SpareTarget(ctx, 2); got != 2 {
		t.Errorf("diverged spare target fell back to %d, want baseline 2", got)
	}
	if rp3.Err() == nil {
		t.Error("missing spare record did not flag divergence")
	}
	// Missing moves record is a recorded empty pass, NOT divergence.
	rp4 := NewReplay(nil, BestFit{})
	if moves, err := rp4.Consolidate(ctx); err != nil || len(moves) != 0 {
		t.Errorf("empty-pass replay = %v, %v", moves, err)
	}
	if rp4.Diverged() {
		t.Error("empty consolidation pass flagged divergence")
	}
}

func TestReplayAppliesRecordedMoves(t *testing.T) {
	d, ctx := dc(t)
	ctx.Obs = obs.New()
	// The filler VM (ID 100) lives on PM1; record a move sending it to
	// PM2 and replay it.
	log := []Decision{{
		Kind: KindMoves, Call: 0,
		Moves: []DecisionMove{{VM: 100, From: 1, To: 2, Round: 1, Gain: 1.5}},
	}}
	rp := NewReplay(log, NewDynamic())
	moves, err := rp.Consolidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].VM != 100 || moves[0].To != 2 || moves[0].Gain != 1.5 {
		t.Fatalf("replayed moves = %+v", moves)
	}
	if !d.PM(2).HasVM(100) || d.PM(1).HasVM(100) {
		t.Error("move was not applied to the datacenter")
	}
	// A second pass has no record: empty.
	if moves, err := rp.Consolidate(ctx); err != nil || len(moves) != 0 {
		t.Errorf("second pass = %v, %v", moves, err)
	}
	// A move whose VM is not on the recorded source errors loudly.
	rp2 := NewReplay(log, NewDynamic())
	if _, err := rp2.Consolidate(ctx); err == nil {
		t.Error("stale move record applied silently")
	}
}

func TestParseDecisionLogRejectsDamage(t *testing.T) {
	var bin bytes.Buffer
	obs.NewTracer(&bin).Emit(0, "decision_spare", obs.I("tick", 0), obs.I("baseline", 0), obs.I("spares", 0))
	for _, bad := range []string{
		`{"v":1,"seq":0,"t":0,"event":"mystery"}`,
		`{"v":1,"seq":0,"t":0,"event":"decision_place","vm":1,"pm":0,"alts":"x"}`,
		`{"v":1,"seq":0,"t":0,"event":"decision_moves","call":0,"moves":""}`,
		`not json`,
		bin.String()[:bin.Len()-1], // a truncated binary record
	} {
		if _, err := ParseDecisionLog(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseDecisionLog accepted %q", bad)
		}
	}
	log, err := ParseDecisionLog(strings.NewReader(""))
	if err != nil || len(log) != 0 {
		t.Errorf("empty log = %v, %v", log, err)
	}
}
