package sim

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/snapshot"
	"repro/internal/spare"
	"repro/internal/stats"
	"repro/internal/vector"
)

// This file is the checkpoint layer: Save serializes the complete
// simulator state at an event boundary, Restore rebuilds a Sim that
// continues the run bit-exactly — same dispatch order, same random draws,
// same trace bytes, same final CSV. The event queue holds only tags,
// which serialize as they are: restore checks that each names something
// the restored state holds, and preserved sequence numbers keep the
// (at, seq) dispatch order intact. The queue holds only the next unfired
// arrival; a snapshot lists them all (withUnfiredArrivals), and restore
// re-chains from that list (restoreArrivals).
//
// What is deliberately NOT in a snapshot:
//   - the engine heap's layout (dispatch order is total in (at, seq);
//     any layout replays it identically);
//   - the core.Context caches and the NHPP folded-phase cache (pure
//     functions of restored state, rebuilt lazily and bit-identically);
//   - the obs metrics registry (counters/gauges restart at zero in a
//     resumed process; the determinism contract covers the trace and the
//     result CSVs, not the diagnostic registry dump);
//   - the requests and the boot-preference order (derived from Config).

// pmState is one PM's mutable state. Used and Reserved are recomputed on
// restore by re-hosting VMs and re-applying holds; the snapshot still
// records them and the loader verifies bit-equality, turning any
// serialization drift into a loud error instead of a diverging resume.
type pmState struct {
	ID          cluster.PMID `json:"id"`
	State       int          `json:"state"`
	Reliability float64      `json:"rel"`
	Failures    int          `json:"failures,omitempty"`
	Used        vector.V     `json:"used"`
	Reserved    vector.V     `json:"reserved,omitempty"`
}

// vmState is one live (placed or queued) VM.
type vmState struct {
	ID         cluster.VMID `json:"id"`
	Demand     vector.V     `json:"demand"`
	Est        float64      `json:"est"`
	Actual     float64      `json:"actual"`
	Submit     float64      `json:"submit"`
	Start      float64      `json:"start"`
	Finish     float64      `json:"finish"`
	State      int          `json:"state"`
	Host       cluster.PMID `json:"host"`
	Migrations int          `json:"migrations,omitempty"`
}

// holdState is one in-flight timed migration's source-side reservation.
// The cutover event itself lives in the engine state (evMigCutover).
type holdState struct {
	VM     cluster.VMID `json:"vm"`
	Source cluster.PMID `json:"source"`
	Demand vector.V     `json:"demand"`
}

// moveState carries one executed migration. Gain is formatted as a string
// because the rescue-migration path records +Inf, which JSON numbers
// cannot represent; strconv round-trips all float64 values exactly.
type moveState struct {
	VM    cluster.VMID `json:"vm"`
	From  cluster.PMID `json:"from"`
	To    cluster.PMID `json:"to"`
	Gain  string       `json:"gain"`
	Round int          `json:"round"`
}

// simState is the complete serializable run state.
type simState struct {
	Engine      EngineState              `json:"engine"`
	PMs         []pmState                `json:"pms"`
	VMs         []vmState                `json:"vms"`
	Queue       []cluster.VMID           `json:"queue,omitempty"`
	BootReadyAt map[cluster.PMID]float64 `json:"boot_ready,omitempty"`
	Holds       []holdState              `json:"holds,omitempty"`
	Meter       power.MeterState         `json:"meter"`
	Spare       *spare.State             `json:"spare,omitempty"`
	FailRNG     *stats.StreamState       `json:"fail_rng,omitempty"`
	PlacerRNG   *stats.StreamState       `json:"placer_rng,omitempty"`
	Arrived     int                      `json:"arrived"`
	TickRan     bool                     `json:"tick_ran,omitempty"`
	SpareTarget int                      `json:"spare_target"`
	Boots       int                      `json:"boots"`
	QueuedCount int                      `json:"queued_count"`
	Waits       []float64                `json:"waits,omitempty"`
	Completed   int                      `json:"completed"`
	Rejected    int                      `json:"rejected"`
	Failures    int                      `json:"failures"`
	Moves       []moveState              `json:"moves,omitempty"`
	SparePlans  []spare.Plan             `json:"spare_plans,omitempty"`
	ActivePMs   []float64                `json:"active_pms,omitempty"`
	MeanUtil    []float64                `json:"mean_util,omitempty"`
	TraceSeq    uint64                   `json:"trace_seq"`

	// DecisionSeq mirrors TraceSeq for the decision log, and PlacerState
	// carries policy-internal state (Recorder keying, the adaptive
	// threshold walk). Both are omitted when zero/nil so checkpoints
	// from uninstrumented runs keep their pre-policy-lab byte layout.
	DecisionSeq uint64              `json:"decision_seq,omitempty"`
	PlacerState *policy.PlacerState `json:"placer_state,omitempty"`
}

// meta fingerprints the run configuration for snapshot compatibility. The
// class and workload digests are taken on first use, not in New, and kept:
// their inputs never change in a run.
func (s *simulator) meta() snapshot.Meta {
	if s.classDigest == "" {
		s.classDigest = snapshot.ClassDigest(s.dc)
	}
	if s.workloadDigest == "" {
		s.workloadDigest = snapshot.WorkloadDigest(s.cfg.Requests)
	}
	return snapshot.Meta{
		Scheme:          s.cfg.Placer.Name(),
		FleetSize:       s.dc.Size(),
		ClassDigest:     s.classDigest,
		Requests:        len(s.cfg.Requests),
		WorkloadDigest:  s.workloadDigest,
		ControlPeriod:   controlPeriod,
		MeterBin:        meterBin,
		TimedMigrations: s.cfg.TimedMigrations,
		Spare:           s.cfg.Spare != nil,
		Failures:        s.cfg.Failures.Enabled(),
	}
}

// Save writes a checkpoint of the current state to w. It must be called
// at an event boundary — between two Steps, never from inside a handler.
func (m *Sim) Save(w io.Writer) error { return m.s.save(w) }

func (s *simulator) save(w io.Writer) error {
	st, err := s.captureState()
	if err != nil {
		return err
	}
	return snapshot.Write(w, s.meta(), st)
}

func (s *simulator) captureState() (*simState, error) {
	engSt, err := s.eng.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	engSt.Events = s.withUnfiredArrivals(engSt.Events)
	st := &simState{
		Engine:      engSt,
		Meter:       s.meter.State(),
		Arrived:     s.arrived,
		TickRan:     s.tickRan,
		SpareTarget: s.spareTarget,
		Boots:       s.boots,
		QueuedCount: s.queuedCount,
		Waits:       s.waits,
		Completed:   s.res.Summary.VMsCompleted,
		Rejected:    s.res.Summary.Rejected,
		Failures:    s.res.Failures,
		SparePlans:  s.res.SparePlans,
		ActivePMs:   s.res.ActivePMs.Values,
		MeanUtil:    s.res.MeanUtilization.Values,
	}
	for _, pm := range s.dc.PMs() {
		st.PMs = append(st.PMs, pmState{
			ID:          pm.ID,
			State:       int(pm.State()),
			Reliability: pm.Reliability(),
			Failures:    pm.Failures,
			Used:        pm.Used.Clone(),
			Reserved:    pm.Reserved(),
		})
	}
	s.liveVMs(func(vm *cluster.VM) {
		st.VMs = append(st.VMs, vmState{
			ID:         vm.ID,
			Demand:     vm.Demand.Clone(),
			Est:        vm.EstimatedRuntime,
			Actual:     vm.ActualRuntime,
			Submit:     vm.SubmitTime,
			Start:      vm.StartTime,
			Finish:     vm.FinishTime,
			State:      int(vm.State),
			Host:       vm.Host,
			Migrations: vm.Migrations,
		})
	})
	for _, vm := range s.queue {
		st.Queue = append(st.Queue, vm.ID)
	}
	if len(s.bootReadyAt) > 0 {
		st.BootReadyAt = s.bootReadyAt
	}
	for id, hold := range s.holds {
		st.Holds = append(st.Holds, holdState{VM: id, Source: hold.source.ID, Demand: hold.demand.Clone()})
	}
	slices.SortFunc(st.Holds, func(a, b holdState) int { return cmp.Compare(a.VM, b.VM) })
	for _, mv := range s.res.Moves {
		st.Moves = append(st.Moves, moveState{
			VM: mv.VM, From: mv.From, To: mv.To,
			Gain:  strconv.FormatFloat(mv.Gain, 'g', -1, 64),
			Round: mv.Round,
		})
	}
	if s.ctrl != nil {
		cs := s.ctrl.State()
		st.Spare = &cs
	}
	if s.inj != nil {
		rs := s.inj.RNGState()
		st.FailRNG = &rs
	}
	if r, ok := policy.RandomOf(s.cfg.Placer); ok {
		rs := r.RNGState()
		st.PlacerRNG = &rs
	}
	if s.cfg.Obs.Tracing() {
		st.TraceSeq = s.cfg.Obs.Trace.Events()
	} else {
		st.TraceSeq = s.traceSeq0
	}
	if s.cfg.Obs.DecisionTracing() {
		st.DecisionSeq = s.cfg.Obs.Decisions.Events()
	} else {
		st.DecisionSeq = s.decisionSeq0
	}
	st.PlacerState = policy.CaptureState(s.cfg.Placer)
	return st, nil
}

// Restore rebuilds a mid-run Sim from a checkpoint written by Save. cfg
// must describe the same run (scheme, fleet, workload, control knobs);
// the envelope's fingerprint enforces this. The fresh components cfg
// carries — datacenter, observer, event log — receive the checkpointed
// state; a tracing observer's logical clock resumes where the interrupted
// run's stopped, so the concatenated traces match the uninterrupted run
// canonically byte-for-byte.
func Restore(cfg Config, r io.Reader) (*Sim, error) { return restoreRun(cfg, r, "") }

// restoreRun is Restore with the workload's digest already taken, or "" to
// take it.
func restoreRun(cfg Config, r io.Reader, workloadDigest string) (*Sim, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	f, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	s := newSimulator(&cfg)
	s.workloadDigest = workloadDigest
	if err := f.CheckMeta(s.meta()); err != nil {
		return nil, err
	}
	var st simState
	if err := json.Unmarshal(f.State, &st); err != nil {
		return nil, fmt.Errorf("sim: decode snapshot state: %w", err)
	}
	if err := s.restore(&st); err != nil {
		return nil, err
	}
	return &Sim{s: s}, nil
}

func (s *simulator) restore(st *simState) error {
	s.initRun()
	if s.ctrl != nil {
		if st.Spare == nil {
			return fmt.Errorf("sim: config has a spare controller but snapshot carries no spare state")
		}
		if err := s.ctrl.RestoreState(*st.Spare); err != nil {
			return fmt.Errorf("sim: restore spare controller: %w", err)
		}
	}
	if s.inj != nil {
		if st.FailRNG == nil {
			return fmt.Errorf("sim: config injects failures but snapshot carries no failure RNG state")
		}
		if err := s.inj.RestoreRNG(*st.FailRNG); err != nil {
			return fmt.Errorf("sim: restore failure RNG: %w", err)
		}
	}
	if rp, ok := policy.RandomOf(s.cfg.Placer); ok {
		if st.PlacerRNG == nil {
			return fmt.Errorf("sim: random placer but snapshot carries no placer RNG state")
		}
		if err := rp.RestoreRNG(*st.PlacerRNG); err != nil {
			return fmt.Errorf("sim: restore placer RNG: %w", err)
		}
	}
	if err := policy.RestoreState(s.cfg.Placer, st.PlacerState); err != nil {
		return fmt.Errorf("sim: restore placer state: %w", err)
	}
	s.setupObs()
	s.traceSeq0 = st.TraceSeq
	if s.cfg.Obs.Tracing() {
		if err := s.cfg.Obs.Trace.ResumeSeq(st.TraceSeq); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	s.decisionSeq0 = st.DecisionSeq
	if s.cfg.Obs.DecisionTracing() {
		if err := s.cfg.Obs.Decisions.ResumeSeq(st.DecisionSeq); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}

	// Machine state first: hosting requires the PM power states.
	if len(st.PMs) != s.dc.Size() {
		return fmt.Errorf("sim: snapshot has %d PMs, fleet has %d", len(st.PMs), s.dc.Size())
	}
	for i, ps := range st.PMs {
		pm := s.dc.PM(ps.ID)
		if pm == nil || int(pm.ID) != i {
			return fmt.Errorf("sim: snapshot PM record %d has ID %d", i, ps.ID)
		}
		if ps.State < int(cluster.PMOff) || ps.State > int(cluster.PMFailed) {
			return fmt.Errorf("sim: snapshot PM %d has unknown state %d", ps.ID, ps.State)
		}
		pm.SetState(cluster.PMState(ps.State))
		pm.SetReliability(ps.Reliability)
		pm.Failures = ps.Failures
	}
	for id, ready := range st.BootReadyAt {
		s.bootReadyAt[id] = ready
	}

	// Re-host VMs in ID order, then re-apply migration holds; Used and
	// Reserved are thereby recomputed through the same arithmetic path
	// the live run took (demands sum exactly — see the bit-equality
	// verification below, which catches any drift).
	for _, vs := range st.VMs {
		if vs.ID < 1 || int(vs.ID) > len(s.cfg.Requests) {
			return fmt.Errorf("sim: snapshot VM %d is outside the workload's %d requests", vs.ID, len(s.cfg.Requests))
		}
		if s.vm(int64(vs.ID)) != nil {
			return fmt.Errorf("sim: snapshot lists VM %d twice", vs.ID)
		}
		if err := s.checkDemand(vs.Demand); err != nil {
			return fmt.Errorf("sim: snapshot VM %d demand: %w", vs.ID, err)
		}
		if !(vs.Est >= 0 && vs.Actual >= 0 && vs.Submit >= 0) {
			return fmt.Errorf("sim: snapshot VM %d has a negative time (est %g, actual %g, submit %g)",
				vs.ID, vs.Est, vs.Actual, vs.Submit)
		}
		if vs.State < int(cluster.VMQueued) || vs.State > int(cluster.VMFinished) {
			return fmt.Errorf("sim: snapshot VM %d has unknown state %d", vs.ID, vs.State)
		}
		vm := s.newVM(vs.ID, vs.Demand, vs.Est, vs.Actual, vs.Submit)
		vm.StartTime = vs.Start
		vm.FinishTime = vs.Finish
		vm.Migrations = vs.Migrations
		if vs.Host != cluster.NoPM {
			pm := s.dc.PM(vs.Host)
			if pm == nil {
				return fmt.Errorf("sim: snapshot VM %d hosted on unknown PM %d", vs.ID, vs.Host)
			}
			if err := pm.Host(vm); err != nil {
				return fmt.Errorf("sim: snapshot re-host: %w", err)
			}
		}
		vm.State = cluster.VMState(vs.State)
	}
	for _, hs := range st.Holds {
		vm := s.vm(int64(hs.VM))
		source := s.dc.PM(hs.Source)
		if vm == nil || source == nil {
			return fmt.Errorf("sim: snapshot hold references unknown VM %d or PM %d", hs.VM, hs.Source)
		}
		if err := s.checkDemand(hs.Demand); err != nil {
			return fmt.Errorf("sim: snapshot hold of VM %d demand: %w", hs.VM, err)
		}
		if err := source.Reserve(hs.Demand); err != nil {
			return fmt.Errorf("sim: snapshot hold: %w", err)
		}
		s.holds[vm.ID] = &migrationHold{vm: vm, source: source, demand: hs.Demand.Clone()}
	}
	for _, ps := range st.PMs {
		pm := s.dc.PM(ps.ID)
		if !vectorEq(pm.Used, ps.Used) || !vectorEq(pm.Reserved(), ps.Reserved) {
			return fmt.Errorf("sim: PM %d accounting drift after restore: used %v/%v reserved %v/%v",
				ps.ID, pm.Used, ps.Used, pm.Reserved(), ps.Reserved)
		}
	}
	// The meter goes after the fleet: it re-derives the changes it had not
	// charged yet by comparing its saved draws with the restored PMs.
	if err := s.meter.RestoreState(st.Meter); err != nil {
		return fmt.Errorf("sim: restore meter: %w", err)
	}
	for _, id := range st.Queue {
		vm := s.vm(int64(id))
		if vm == nil {
			return fmt.Errorf("sim: snapshot queue references unknown VM %d", id)
		}
		s.queue = append(s.queue, vm)
	}

	// Counters, series, and result accumulators.
	s.arrived = st.Arrived
	s.tickRan = st.TickRan
	s.spareTarget = st.SpareTarget
	s.boots = st.Boots
	s.queuedCount = st.QueuedCount
	s.waits = append(s.waits, st.Waits...)
	for _, w := range s.waits {
		s.waitHist.Observe(w)
	}
	s.res.Summary.VMsCompleted = st.Completed
	s.res.Summary.Rejected = st.Rejected
	s.res.Failures = st.Failures
	s.res.SparePlans = append(s.res.SparePlans, st.SparePlans...)
	s.res.ActivePMs.Values = append(s.res.ActivePMs.Values, st.ActivePMs...)
	s.res.MeanUtilization.Values = append(s.res.MeanUtilization.Values, st.MeanUtil...)
	for _, ms := range st.Moves {
		gain, err := strconv.ParseFloat(ms.Gain, 64)
		if err != nil {
			return fmt.Errorf("sim: snapshot move gain %q: %w", ms.Gain, err)
		}
		s.res.Moves = append(s.res.Moves, core.Move{VM: ms.VM, From: ms.From, To: ms.To, Gain: gain, Round: ms.Round})
	}

	// Finally the event queue: every saved tag must name something the
	// restored state holds, then the events are re-queued and the
	// cancellation maps re-armed from the returned handles.
	for i, ev := range st.Engine.Events {
		if !s.names(ev.Tag) {
			return fmt.Errorf("sim: restore event queue: event %d (kind %d, arg %d) names nothing the snapshot holds",
				i, ev.Tag.Kind, ev.Tag.Arg)
		}
	}
	queued, err := s.restoreArrivals(st.Engine, st.Arrived)
	if err != nil {
		return fmt.Errorf("sim: restore event queue: %w", err)
	}
	handles, err := s.eng.RestoreState(queued)
	if err != nil {
		return fmt.Errorf("sim: restore event queue: %w", err)
	}
	for i, ev := range queued.Events {
		switch ev.Tag.Kind {
		case evCreationDone, evDeparture:
			s.lifeEvent[cluster.VMID(ev.Tag.Arg)] = handles[i]
		case evFailure:
			s.failEvent[cluster.PMID(ev.Tag.Arg)] = handles[i]
		case evMigCutover:
			s.holds[cluster.VMID(ev.Tag.Arg)].done = handles[i]
		}
	}
	// Records that are each valid can still contradict one another (a
	// queued VM that is also placed, a held VM marked finished): the
	// per-event checks name the first such contradiction before any event
	// runs on it.
	var a audit.Auditor
	s.registerStateChecks(&a)
	if err := a.RunEvent(s.eng.Now()); err != nil {
		return fmt.Errorf("sim: snapshot state contradicts itself: %w", err)
	}
	s.setupAudit()
	return nil
}

// withUnfiredArrivals adds to the queue's events the records of the
// arrivals after the queued one, each at its request's submit time under
// its reserved sequence number, and sorts the list by (At, Seq): a
// checkpoint lists every unfired arrival, as if all were queued.
func (s *simulator) withUnfiredArrivals(evs []QueuedEvent) []QueuedEvent {
	if s.arrived+2 > len(s.cfg.Requests) {
		return evs
	}
	for id := s.arrived + 2; id <= len(s.cfg.Requests); id++ {
		evs = append(evs, QueuedEvent{
			At:  s.cfg.Requests[id-1].Submit,
			Seq: s.arrivalBase + uint64(id),
			Tag: Tag{Kind: evArrival, Arg: int64(id)},
		})
	}
	slices.SortFunc(evs, compareQueued)
	return evs
}

// checkDemand holds a snapshot's VM or hold demand to what cluster code
// takes on trust: finite, non-negative components, the fleet's dimension.
func (s *simulator) checkDemand(d vector.V) error {
	if want := s.dc.RMinShared().Dim(); d.Dim() != want {
		return fmt.Errorf("dimension %d, the fleet's is %d", d.Dim(), want)
	}
	return d.Validate()
}

// restoreArrivals checks a checkpoint's arrival records and returns the
// engine state to queue: every other event plus the first unfired
// arrival, whose successors chain from it. The records must be the
// arrivals of VMs arrived+1 … n, each at its request's submit time under
// base+id for one base, that block at or below the engine's counter, and
// no other event may hold a number in it. Any other run would resume
// without a VM, or dispatch one out of order; each is refused by naming
// the arrival.
func (s *simulator) restoreArrivals(st EngineState, arrived int) (EngineState, error) {
	n := len(s.cfg.Requests)
	var arrivals []QueuedEvent
	rest := make([]QueuedEvent, 0, len(st.Events))
	for _, ev := range st.Events {
		if ev.Tag.Kind == evArrival {
			arrivals = append(arrivals, ev)
		} else {
			rest = append(rest, ev)
		}
	}
	slices.SortFunc(arrivals, func(a, b QueuedEvent) int { return cmp.Compare(a.Tag.Arg, b.Tag.Arg) })
	for i, ev := range arrivals {
		id := int64(arrived + 1 + i)
		switch {
		case ev.Tag.Arg < id:
			return st, fmt.Errorf("arrival of VM %d is out of sequence: %d requests have arrived, the next is VM %d", ev.Tag.Arg, arrived, id)
		case ev.Tag.Arg > id:
			return st, fmt.Errorf("arrival of VM %d is missing from the arrival run", id)
		case ev.At != s.cfg.Requests[id-1].Submit:
			return st, fmt.Errorf("arrival of VM %d at t=%g, but its request submits at t=%g", id, ev.At, s.cfg.Requests[id-1].Submit)
		case ev.Seq <= uint64(id) || (i > 0 && ev.Seq-uint64(id) != s.arrivalBase):
			return st, fmt.Errorf("arrival of VM %d has seq %d, out of the arrival run", id, ev.Seq)
		}
		s.arrivalBase = ev.Seq - uint64(id)
	}
	if got := arrived + len(arrivals); got < n {
		return st, fmt.Errorf("arrival of VM %d is missing: the arrival run stops at VM %d of %d", got+1, got, n)
	}
	if len(arrivals) == 0 {
		return st, nil
	}
	if last := s.arrivalBase + uint64(n); last > st.Seq {
		return st, fmt.Errorf("arrival of VM %d has seq %d beyond the counter %d", n, last, st.Seq)
	}
	for _, ev := range rest {
		if ev.Seq > s.arrivalBase && ev.Seq <= s.arrivalBase+uint64(n) {
			return st, fmt.Errorf("event (kind %d, arg %d) holds seq %d, the arrival of VM %d's",
				ev.Tag.Kind, ev.Tag.Arg, ev.Seq, ev.Seq-s.arrivalBase)
		}
	}
	st.Events = append(rest, arrivals[0])
	return st, nil
}

// names reports whether tag names what its kind's handler needs: a request
// for an arrival, a live VM for a creation or departure, a PM of the fleet
// for a power or failure event, a hold for a cutover.
func (s *simulator) names(tag Tag) bool {
	switch tag.Kind {
	case evArrival:
		return tag.Arg >= 1 && tag.Arg <= int64(len(s.cfg.Requests))
	case evCreationDone, evDeparture:
		return s.vm(tag.Arg) != nil
	case evBootDone, evShutdownDone, evFailure, evRepaired:
		return s.dc.PM(cluster.PMID(tag.Arg)) != nil
	case evMigCutover:
		return s.holds[cluster.VMID(tag.Arg)] != nil
	}
	return tag.Kind == evControlTick
}

// vectorEq is exact (bitwise) float equality — the restore drift check
// demands bit-exactness, not tolerance.
func vectorEq(a, b vector.V) bool {
	if len(a) != len(b) {
		// A nil Reserved marshals as omitted; treat nil and zero as equal.
		return a.IsZero() && b.IsZero()
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// snapshotRoundTrip is the auditor's snapshot check: serialize the live
// state, restore it into a topology clone of the fleet, serialize the
// clone, and require the two byte streams to be identical — plus a full
// invariant pass over the restored clone. Any state the snapshot drops or
// distorts surfaces here, at the period it first happens, instead of as a
// diverging resume long after.
func (s *simulator) snapshotRoundTrip() error {
	var buf bytes.Buffer
	if err := s.save(&buf); err != nil {
		return err
	}
	first := append([]byte(nil), buf.Bytes()...)
	cfg2 := *s.cfg
	cfg2.DC = s.dc.CloneTopology()
	cfg2.Obs = nil
	cfg2.Audit = audit.Off
	// The clone replays the same requests, so it takes this run's workload
	// digest; its class digest is its own fleet's.
	m2, err := restoreRun(cfg2, bytes.NewReader(first), s.workloadDigest)
	if err != nil {
		return fmt.Errorf("restore of own snapshot failed: %w", err)
	}
	if err := m2.s.dc.CheckInvariants(); err != nil {
		return fmt.Errorf("restored state fails invariants: %w", err)
	}
	var buf2 bytes.Buffer
	if err := m2.Save(&buf2); err != nil {
		return fmt.Errorf("re-save of restored snapshot failed: %w", err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		return fmt.Errorf("snapshot round-trip not byte-identical (first divergence at byte %d of %d/%d)",
			firstDiff(first, buf2.Bytes()), len(first), buf2.Len())
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// SnapshotCheck wraps the round-trip as an auditor check. Serializing the
// whole run state is too heavy for per-event granularity; it runs at
// control-period boundaries.
func (s *simulator) snapshotCheck() audit.Check {
	return audit.Check{
		Name:     "snapshot",
		PerEvent: false,
		Fn:       func(now float64) error { return s.snapshotRoundTrip() },
	}
}
