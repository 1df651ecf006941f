package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/spare"
	"repro/internal/stats"
	"repro/internal/vector"
	"repro/internal/workload"
)

// meterBin is the energy-accounting bin width in seconds: hourly, as the
// paper's figures are.
const meterBin = 3600

// controlPeriod is T, the spare-server control period in seconds: hourly,
// the period the paper's controller and figures use. The simulator hands
// it to spare.NewController, so the tick interval and the planning window
// cannot differ.
const controlPeriod = 3600

// Config describes one simulation run: a data center, a placement scheme,
// a workload, and the control knobs of Sections III-IV.
type Config struct {
	// DC is the data center; all PMs should start powered off (the
	// simulator boots on demand). Required.
	DC *cluster.Datacenter

	// Placer is the placement scheme under test. Required.
	Placer policy.Policy

	// Requests is the workload, sorted by submit time. Required.
	Requests []workload.Request

	// Spare enables the spare-server controller (Section IV). Nil runs
	// without spares — the configuration the static baselines use.
	Spare *spare.Config

	// Failures configures PM failure injection; the zero value disables
	// it.
	Failures failure.Config

	// TimedMigrations switches live migrations from the paper's
	// instantaneous model (the T_mig overhead enters only through the
	// p_vir probability penalty) to a pre-copy model: the moved VM is
	// in the Migrating state for the target's T_mig, its resources stay
	// committed on the source until cutover (double occupancy), and it
	// cannot be migrated again until the transfer completes.
	TimedMigrations bool

	// WarmStart powers on this many PMs (in boot-preference order) at
	// time zero, skipping the cold-start transient. Zero preserves the
	// paper's cold start.
	WarmStart int

	// Obs, when non-nil, is the observability sink: the run's metrics
	// (counters, gauges, wait histogram, phase timings) land in Obs.Reg,
	// and — when Obs.Trace is set — every simulation event is emitted as
	// a structured trace record (internal/obs). The observer is threaded
	// into the placement kernel (via the core.Context) and the spare
	// controller, so one sink sees the whole run. Each run needs its own
	// Observer; sharing one across concurrent runs keeps the metrics
	// race-free but sums them into a single pool.
	Obs *obs.Observer

	// Cells is accepted and not read: the run has one event engine. Only
	// bench/ sets it. It goes once the benchmark change (ROADMAP item 1)
	// drops bench's use.
	Cells int

	// KernelWorkers is accepted and not read: the placement kernels are
	// serial. Only bench/ sets it. It goes once the benchmark change
	// (ROADMAP item 1) drops bench's use.
	KernelWorkers int

	// Audit selects the invariant auditor's granularity
	// (internal/audit): Off disables it, Period runs every check at
	// control-period boundaries, Event additionally runs the cheap
	// checks after every event and turns on the run Context's self-audit
	// (core.Context.SelfAudit: every consolidation pass of the dynamic
	// family held to cold rebuilds). The first violation aborts the run
	// with a descriptive error.
	Audit audit.Mode
}

func (c *Config) setDefaults() error {
	if c.DC == nil {
		return fmt.Errorf("sim: config needs a datacenter")
	}
	if c.Placer == nil {
		return fmt.Errorf("sim: config needs a placer")
	}
	if c.WarmStart < 0 || c.WarmStart > c.DC.Size() {
		return fmt.Errorf("sim: warm start %d outside fleet size %d", c.WarmStart, c.DC.Size())
	}
	if c.Cells < 0 || c.Cells > c.DC.Size() || c.KernelWorkers < 0 {
		return fmt.Errorf("sim: cells %d (want 0..%d) or kernel workers %d (want ≥ 0) out of range",
			c.Cells, c.DC.Size(), c.KernelWorkers)
	}
	if err := c.Failures.Validate(); err != nil {
		return err
	}
	if c.Spare != nil {
		if err := c.Spare.Validate(); err != nil {
			return err
		}
	}
	for i := 1; i < len(c.Requests); i++ {
		if c.Requests[i].Submit < c.Requests[i-1].Submit {
			return fmt.Errorf("sim: requests not sorted by submit time (index %d)", i)
		}
	}
	if d, ok := policy.DynamicOf(c.Placer); ok {
		if err := core.CheckFactors(d.FactorSet()); err != nil {
			return fmt.Errorf("sim: scheme %s: %w", c.Placer.Name(), err)
		}
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	// Scheme is the placer's name.
	Scheme string

	// ActivePMs samples the number of on/booting PMs at each control
	// period boundary (Figure 3's hourly series).
	ActivePMs *metrics.Series

	// MeanUtilization samples the mean joint utilization of non-idle
	// PMs at each control period boundary; consolidation quality is
	// visible here directly (higher is tighter packing).
	MeanUtilization *metrics.Series

	// EnergyKWh holds per-bin energy in kWh (Figure 4's hourly power
	// series; kWh per hour is numerically the mean kW).
	EnergyKWh *metrics.Series

	// Summary aggregates the run.
	Summary metrics.Summary

	// Moves lists every migration executed (order of execution).
	Moves []core.Move

	// Failures is the number of PM failures injected.
	Failures int

	// SparePlans records the spare-controller decisions per period
	// (empty without a controller).
	SparePlans []spare.Plan

	// EnergyByClassKWh splits total energy by PM class name, for the
	// heterogeneous-fleet analyses.
	EnergyByClassKWh map[string]float64

	// PMEnergyKWh is each PM's total energy over the run, for
	// per-region billing and placement analyses.
	PMEnergyKWh map[cluster.PMID]float64

	// AuditChecks counts the invariant-check executions performed when
	// auditing was enabled (0 with Audit == audit.Off); a successful
	// audited run ran this many checks with zero violations.
	AuditChecks int
}

// Event kinds (Tag.Kind). Every event the simulation schedules is one of
// these plus the entity ID it concerns; fire maps the pair to its handler.
// Kind 0 stays reserved for untagged events (which a checkpoint rejects).
const (
	evArrival      uint8 = iota + 1 // Arg: VM ID
	evControlTick                   // Arg: unused
	evCreationDone                  // Arg: VM ID
	evDeparture                     // Arg: VM ID
	evBootDone                      // Arg: PM ID
	evShutdownDone                  // Arg: PM ID
	evFailure                       // Arg: PM ID
	evRepaired                      // Arg: PM ID
	evMigCutover                    // Arg: VM ID
)

// Run executes the simulation to completion (all requests finished) and
// returns the collected metrics.
func Run(cfg Config) (*Result, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for {
		ok, err := m.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	return m.Finish()
}

// Sim is a stepwise simulation run. New builds the initial state and
// schedules the workload; Step dispatches one event and runs the
// configured checks; Finish validates the drained state and assembles the
// Result. Run composes the three. The seams exist for the checkpoint
// layer: Save may be called between any two Steps, and Restore re-enters
// the same loop mid-run with bit-identical future behavior.
type Sim struct {
	s *simulator
}

// New builds a run from cfg: warm-start power state, the control-tick
// chain, and the full workload schedule.
func New(cfg Config) (*Sim, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	s := newSimulator(&cfg)
	s.start()
	return &Sim{s: s}, nil
}

// newSimulator is what New and Restore share before either fills the run:
// the event engine and the run's evaluation Context, which carries the
// run's settings — its observer and, in audit.Event mode, the self-audit —
// so the placer itself is never written to.
func newSimulator(cfg *Config) *simulator {
	s := &simulator{cfg: cfg, dc: cfg.DC}
	s.eng = &Engine{handle: s.fire}
	s.pctx = core.NewContext(s.dc)
	s.pctx.Obs = cfg.Obs
	s.pctx.SelfAudit = cfg.Audit == audit.Event
	return s
}

// Now returns the current simulation time in seconds.
func (m *Sim) Now() float64 { return m.s.eng.Now() }

// Dispatched returns the number of events fired so far.
func (m *Sim) Dispatched() uint64 { return m.s.eng.Dispatched() }

// Pending returns the number of events still queued. Arrivals chain, so
// it counts only the next unfired arrival, not every one to come.
func (m *Sim) Pending() int { return m.s.eng.Pending() }

// Step dispatches the next event and runs the configured invariant
// checks. It returns false when the event queue is empty (the run is
// ready for Finish), and a non-nil error on the first check violation.
func (m *Sim) Step() (bool, error) { return m.s.stepOnce() }

// Finish validates the drained state and assembles the Result. Call it
// exactly once, after Step has returned false.
func (m *Sim) Finish() (*Result, error) { return m.s.finish() }

// simulator holds one run's mutable state.
type simulator struct {
	cfg *Config
	eng *Engine
	dc  *cluster.Datacenter

	meter *power.Meter
	ctrl  *spare.Controller
	inj   *failure.Injector

	// vmChunks finds each live (placed or queued) VM by ID in the chunk
	// it was built in (vmchunk.go); VM IDs are request positions plus one.
	vmChunks []*vmChunk
	demands  []float64 // the unused rest of the VMs' current demand block

	// queue holds requests waiting for capacity, FIFO.
	queue []*cluster.VM

	// qfeed names every PM written since the last drain (drainQueue).
	qfeed *cluster.Feed

	// bootOrder is every PM in boot-preference order, sorted on the first
	// bootCandidates call: the key depends only on a PM's class and ID.
	bootOrder []*cluster.PM

	// idleBuf is powerManage's reusable list of idle PMs.
	idleBuf []*cluster.PM

	// bootReadyAt records when a booting PM becomes usable, so VMs
	// placed onto booting machines start creation after boot completes.
	bootReadyAt map[cluster.PMID]float64

	// failEvent tracks the pending failure event per powered-on PM.
	failEvent map[cluster.PMID]Event

	// lifeEvent tracks each placed VM's next lifecycle event (creation
	// completion or departure) so a PM failure can cancel it before
	// re-queueing the VM.
	lifeEvent map[cluster.VMID]Event

	// holds tracks in-flight timed migrations' source-side reservations.
	holds map[cluster.VMID]*migrationHold

	// pctx is the evaluation context reused across events so the
	// per-class constant cache survives between placements and
	// consolidation passes instead of being rebuilt each time.
	pctx *core.Context

	spareTarget int

	// aud is the invariant auditor (nil when cfg.Audit == audit.Off);
	// arrived feeds its conservation ledger and tickRan marks that a
	// control tick fired so the per-period checks run after it.
	aud     *audit.Auditor
	arrived int
	tickRan bool

	// arrivalBase is the sequence number before the arrivals' block:
	// arrival i sorts under arrivalBase+i (start, queueArrival).
	arrivalBase uint64

	// tracing gates structured event emission so disabled runs never
	// assemble event payloads; the counters and spans below are cached
	// registry pointers (nil-safe no-ops without an observer).
	tracing    bool
	phDispatch *obs.Span
	waitHist   *obs.Histogram
	cArrivals  *obs.Counter
	cPlace     *obs.Counter
	cQueued    *obs.Counter
	cDeparts   *obs.Counter
	cMigrates  *obs.Counter
	cBoots     *obs.Counter
	cShutdowns *obs.Counter
	cFailures  *obs.Counter

	res         *Result
	waits       []float64
	queuedCount int
	boots       int
	horizon     float64

	// traceSeq0 is the trace logical clock carried in from a restored
	// checkpoint. It exists so a restored run WITHOUT an observer (the
	// snapshot auditor's round-trip clone) still re-serializes the same
	// TraceSeq it was restored with, keeping save→load→save byte-exact.
	traceSeq0 uint64

	// decisionSeq0 is the decision-log logical clock carried in from a
	// restored checkpoint, mirroring traceSeq0 for the decision stream:
	// records emitted after a resume continue the original numbering, so
	// concatenated decision logs replay seamlessly.
	decisionSeq0 uint64

	// classDigest and workloadDigest are the checkpoint's fingerprints of
	// the fleet and the requests, taken once, by meta.
	classDigest, workloadDigest string
}

func (s *simulator) ctx() *core.Context {
	return s.pctx.At(s.eng.Now())
}

// setupObs caches the run's metric handles. Everything stays nil (inert)
// without a configured observer. The placement kernel gets the observer on
// the run's Context (newSimulator), the spare controller when it is built
// (initRun).
func (s *simulator) setupObs() {
	o := s.cfg.Obs
	if o == nil {
		return
	}
	s.tracing = o.Tracing()
	s.phDispatch = o.Phase("event_dispatch")
	s.waitHist = o.Reg.Histogram("sim.wait_seconds", waitBounds)
	s.cArrivals = o.Counter("sim.arrivals")
	s.cPlace = o.Counter("sim.placements")
	s.cQueued = o.Counter("sim.queued")
	s.cDeparts = o.Counter("sim.departures")
	s.cMigrates = o.Counter("sim.migrations")
	s.cBoots = o.Counter("sim.boots")
	s.cShutdowns = o.Counter("sim.shutdowns")
	s.cFailures = o.Counter("sim.failures")
}

// emit writes one structured trace event at the current simulation time.
// Callers guard with s.tracing so disabled runs skip payload assembly.
func (s *simulator) emit(event string, fields ...obs.KV) {
	s.cfg.Obs.Emit(s.eng.Now(), event, fields...)
}

// initRun builds the run-lifetime components shared by a fresh start and
// a checkpoint restore: the meter, the queue's change feed, the
// bookkeeping maps, the empty Result, the spare controller, and the
// failure injector. The feed is subscribed before a restore writes
// anything, so every PM a restore powers on or fills is named in it.
func (s *simulator) initRun() {
	s.meter = power.NewMeter(s.dc, meterBin)
	s.qfeed = s.dc.Subscribe()
	s.vmChunks = make([]*vmChunk, (len(s.cfg.Requests)+vmChunkSize-1)/vmChunkSize)
	s.bootReadyAt = make(map[cluster.PMID]float64)
	s.failEvent = make(map[cluster.PMID]Event)
	s.lifeEvent = make(map[cluster.VMID]Event)
	s.holds = make(map[cluster.VMID]*migrationHold)
	s.res = &Result{
		Scheme:          s.cfg.Placer.Name(),
		ActivePMs:       metrics.NewSeries(s.cfg.Placer.Name(), controlPeriod),
		MeanUtilization: metrics.NewSeries(s.cfg.Placer.Name(), controlPeriod),
	}
	if s.cfg.Spare != nil {
		s.ctrl = spare.NewController(*s.cfg.Spare, controlPeriod, s.cfg.Obs)
	}
	if s.cfg.Failures.Enabled() {
		s.inj = failure.NewInjector(s.cfg.Failures)
	}
	for _, req := range s.cfg.Requests {
		if end := req.Submit + req.RunTime; end > s.horizon {
			s.horizon = end
		}
	}
}

func (s *simulator) start() {
	s.initRun()
	s.setupObs()
	s.setupAudit()
	if s.tracing {
		s.emit("run_start",
			obs.S("scheme", s.cfg.Placer.Name()),
			obs.I("pms", int64(s.dc.Size())),
			obs.I("requests", int64(len(s.cfg.Requests))),
			obs.F("control_period", controlPeriod),
			obs.B("spare", s.cfg.Spare != nil),
			obs.B("timed_migrations", s.cfg.TimedMigrations))
	}

	if s.cfg.WarmStart > 0 {
		warm := 0
		s.bootCandidates(func(pm *cluster.PM) bool {
			pm.SetState(cluster.PMOn)
			s.armFailure(pm)
			warm++
			return warm < s.cfg.WarmStart
		})
	}
	// The warm pool doubles as the initial spare target so the t=0
	// power-management pass does not immediately shut it down; a spare
	// plan (or, without a controller, the first later tick) supersedes
	// it.
	s.spareTarget = s.cfg.WarmStart

	// The control tick is scheduled before the workload so the t=0
	// sample observes the cold-start state before any same-instant
	// arrival (FIFO tie-breaking). The arrivals own the block of sequence
	// numbers right after the tick's, arrival i holding arrivalBase+i,
	// but only the next one is queued: each arrival queues its successor
	// (onArrival), which sorts after it because the requests are sorted
	// by submit time.
	if n := len(s.cfg.Requests); n > 0 {
		s.eng.ScheduleTag(0, Tag{Kind: evControlTick})
		s.arrivalBase = s.eng.reserve(n)
		s.queueArrival(1)
	}
}

// queueArrival queues the arrival of VM id under its reserved sequence
// number; past the last request it does nothing.
func (s *simulator) queueArrival(id int) {
	if id <= len(s.cfg.Requests) {
		s.eng.scheduleSeq(s.cfg.Requests[id-1].Submit, s.arrivalBase+uint64(id), Tag{Kind: evArrival, Arg: int64(id)})
	}
}

// stepOnce is one main-loop iteration: dispatch the next event, then run
// the per-event checks the configuration asks for.
func (s *simulator) stepOnce() (bool, error) {
	start := s.phDispatch.Begin()
	stepped := s.eng.Step()
	s.phDispatch.End(start)
	if !stepped {
		return false, nil
	}
	if s.aud == nil {
		return true, nil
	}
	var err error
	if s.tickRan {
		// A control tick just fired: run the full set, including the
		// per-period differential against the cold reference.
		s.tickRan = false
		err = s.aud.RunPeriod(s.eng.Now())
	} else if s.cfg.Audit == audit.Event {
		err = s.aud.RunEvent(s.eng.Now())
	}
	if err != nil {
		err = fmt.Errorf("sim: %w", err)
		if s.tracing {
			s.emit("audit_violation", obs.S("error", err.Error()))
		}
	}
	return true, err
}

func (s *simulator) finish() (*Result, error) {
	if len(s.queue) > 0 {
		return nil, fmt.Errorf("sim: %d requests still queued at drain (no capacity ever became available)", len(s.queue))
	}
	s.meter.Advance(s.eng.Now())
	if s.aud != nil {
		// Final sweep over the drained state.
		if err := s.aud.RunPeriod(s.eng.Now()); err != nil {
			err = fmt.Errorf("sim: %w", err)
			if s.tracing {
				s.emit("audit_violation", obs.S("error", err.Error()))
			}
			return nil, err
		}
		s.res.AuditChecks = s.aud.Checks()
	}
	s.finalizeResult()
	if s.tracing {
		s.emit("run_end",
			obs.I("completed", int64(s.res.Summary.VMsCompleted)),
			obs.I("rejected", int64(s.res.Summary.Rejected)),
			obs.I("migrations", int64(len(s.res.Moves))),
			obs.I("boots", int64(s.boots)),
			obs.I("failures", int64(s.res.Failures)),
			obs.I("dispatched", int64(s.eng.Dispatched())))
	}
	return s.res, nil
}

// setupAudit registers the invariant checks matching the run's
// configuration. A dynamic scheme gets the roster-vs-cold-rebuild
// RosterCheck and SparseCheck, which holds a pass's first lazy round to
// core's cold reference. In Event mode the run Context's self-audit
// (newSimulator) also verifies every consolidation pass's roster against a
// cold rebuild and every lazy round against a cold reference.
func (s *simulator) setupAudit() {
	if s.cfg.Audit == audit.Off {
		return
	}
	s.aud = &audit.Auditor{}
	s.registerStateChecks(s.aud)
	if s.cfg.Spare != nil {
		s.aud.Register(audit.SpareCheck(*s.cfg.Spare, s.dc, func() *spare.Plan {
			if n := len(s.res.SparePlans); n > 0 {
				return &s.res.SparePlans[n-1]
			}
			return nil
		}))
	}
	if d, ok := policy.DynamicOf(s.cfg.Placer); ok {
		s.aud.Register(audit.RosterCheck(s.pctx))
		s.aud.Register(audit.SparseCheck(s.pctx, d.FactorSet(), func() float64 { return d.Params.MIGThreshold }))
	}
	// The snapshot round-trip (save → restore into a topology clone →
	// re-save → byte-compare + invariants) is period-granularity only:
	// serializing the whole run per event would dominate the run.
	s.aud.Register(s.snapshotCheck())
}

// registerStateChecks registers the per-event checks on the run's own
// state: the fleet's bookkeeping, the event heap, the queue against its
// change feed, the energy meter's draws and the VM population ledger. An
// audited run holds every event to them, and Restore holds the state it
// rebuilt to them once, whatever the run's audit mode.
func (s *simulator) registerStateChecks(a *audit.Auditor) {
	a.Register(audit.StateCheck(s.dc))
	a.Register(audit.QueueCheck(s.eng.VerifyQueue))
	a.Register(audit.DrainCheck(s.dc, s.qfeed, func() []*cluster.VM { return s.queue }))
	a.Register(audit.EnergyCheck(s.meter, s.dc))
	a.Register(audit.ConservationCheck(s.dc, func() (arrived, queued, finished, rejected int) {
		return s.arrived, len(s.queue), s.res.Summary.VMsCompleted, s.res.Summary.Rejected
	}))
}

// --- event handlers ---

// fire is the single definition of what each event kind does, in a fresh
// run and a restored one alike (restore checks each saved tag first).
func (s *simulator) fire(tag Tag) {
	switch tag.Kind {
	case evArrival:
		s.onArrival(cluster.VMID(tag.Arg))
	case evControlTick:
		s.onControlTick()
	case evCreationDone:
		s.onCreationDone(s.vm(tag.Arg))
	case evDeparture:
		s.onDeparture(s.vm(tag.Arg))
	case evBootDone:
		s.onBootDone(s.dc.PM(cluster.PMID(tag.Arg)))
	case evShutdownDone:
		s.onShutdownDone(s.dc.PM(cluster.PMID(tag.Arg)))
	case evFailure:
		s.onFailure(s.dc.PM(cluster.PMID(tag.Arg)))
	case evRepaired:
		s.onRepaired(s.dc.PM(cluster.PMID(tag.Arg)))
	case evMigCutover:
		s.finishTimedMigration(s.holds[cluster.VMID(tag.Arg)])
	default:
		panic(fmt.Sprintf("sim: event of unknown kind %d, arg %d", tag.Kind, tag.Arg))
	}
}

func (s *simulator) onArrival(id cluster.VMID) {
	s.queueArrival(int(id) + 1)
	req := &s.cfg.Requests[id-1]
	now := s.eng.Now()
	s.arrived++
	s.meter.Advance(now)
	if s.ctrl != nil {
		s.ctrl.RecordArrival(now)
	}
	vm := s.newVM(id, vector.V{req.CPUCores, req.MemoryGB}, req.EstimatedRunTime, req.RunTime, now)
	s.cArrivals.Inc()
	if s.tracing {
		s.emit("arrival", obs.I("vm", int64(vm.ID)),
			obs.F("cpu", req.CPUCores), obs.F("mem", req.MemoryGB), obs.F("est", req.EstimatedRunTime))
	}
	if !s.tryPlace(vm) {
		s.enqueue(vm)
	}
	s.consolidate()
}

// tryPlace asks the placer for a host and, when found, starts VM creation.
func (s *simulator) tryPlace(vm *cluster.VM) bool {
	pm := s.cfg.Placer.Place(s.ctx(), vm)
	if pm == nil {
		return false
	}
	if err := pm.Host(vm); err != nil {
		// The placer returned an infeasible PM — a scheme bug worth
		// surfacing loudly rather than mis-accounting.
		panic(fmt.Sprintf("sim: placer %s chose infeasible PM: %v", s.cfg.Placer.Name(), err))
	}
	vm.State = cluster.VMCreating
	now := s.eng.Now()
	start := now
	if ready, booting := s.bootReadyAt[pm.ID]; booting && ready > now {
		start = ready
	}
	s.recordWait(vm, start)
	s.cPlace.Inc()
	if s.tracing {
		s.emit("place", obs.I("vm", int64(vm.ID)), obs.I("pm", int64(pm.ID)), obs.F("ready", start))
	}
	done := start + pm.Class.CreationTime
	s.lifeEvent[vm.ID] = s.eng.ScheduleTag(done, Tag{Kind: evCreationDone, Arg: int64(vm.ID)})
	return true
}

// waitBounds buckets the placement-wait histogram.
var waitBounds = []float64{1, 10, 60, 300, 1800}

func (s *simulator) recordWait(vm *cluster.VM, placedAt float64) {
	w := placedAt - vm.SubmitTime
	if w < 0 {
		w = 0
	}
	if s.waits == nil {
		// About one wait per request; sized on first use, not in New.
		s.waits = make([]float64, 0, len(s.cfg.Requests))
	}
	s.waits = append(s.waits, w)
	s.waitHist.Observe(w)
	if w > 1 { // anything beyond a second of queueing counts against QoS
		s.queuedCount++
	}
}

func (s *simulator) enqueue(vm *cluster.VM) {
	// A request no PM class could ever satisfy would wait forever; count
	// it as rejected instead of deadlocking the run.
	feasibleSomewhere := false
	for _, pm := range s.dc.PMs() {
		if vm.Demand.LE(pm.Class.Capacity) {
			feasibleSomewhere = true
			break
		}
	}
	if !feasibleSomewhere {
		s.dropVM(vm.ID)
		s.res.Summary.Rejected++
		s.cfg.Obs.Add("sim.rejected", 1)
		if s.tracing {
			s.emit("reject", obs.I("vm", int64(vm.ID)))
		}
		return
	}
	s.queue = append(s.queue, vm)
	s.cQueued.Inc()
	if s.tracing {
		s.emit("queue", obs.I("vm", int64(vm.ID)), obs.I("depth", int64(len(s.queue))))
	}
	s.ensureBoots()
}

// ensureBoots powers on enough machines to absorb the queue: the queue
// length divided by the average VMs a PM carries, minus boots already in
// flight.
func (s *simulator) ensureBoots() {
	if len(s.queue) == 0 {
		return
	}
	nAve := s.dc.AverageVMsPerPM(1)
	booting := s.dc.BootingCount()
	needed := int(math.Ceil(float64(len(s.queue)) / math.Max(nAve, 1)))
	if booting >= needed {
		return
	}
	s.bootCandidates(func(pm *cluster.PM) bool {
		s.bootPM(pm)
		booting++
		return booting < needed
	})
}

// bootCandidates calls fn on each off PM in preference order, most
// power-efficient class first (lowest active power per minimal-VM slot),
// then by ID, until fn returns false. fn may power the PM it is given on.
func (s *simulator) bootCandidates(fn func(*cluster.PM) bool) {
	if s.bootOrder == nil {
		rmin := s.dc.RMinShared()
		perVM := func(p *cluster.PM) float64 {
			w := p.Class.MaxMinimalVMs(rmin)
			if w == 0 {
				return math.Inf(1)
			}
			return p.Class.ActivePower / float64(w)
		}
		s.bootOrder = slices.Clone(s.dc.PMs())
		slices.SortFunc(s.bootOrder, func(a, b *cluster.PM) int {
			if c := cmp.Compare(perVM(a), perVM(b)); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
	}
	for _, pm := range s.bootOrder {
		if pm.State() == cluster.PMOff && !fn(pm) {
			return
		}
	}
}

func (s *simulator) bootPM(pm *cluster.PM) {
	if pm.State() != cluster.PMOff {
		return
	}
	s.meter.Advance(s.eng.Now())
	pm.SetState(cluster.PMBooting)
	ready := s.eng.Now() + pm.Class.OnOffOverhead
	s.bootReadyAt[pm.ID] = ready
	s.boots++
	s.cBoots.Inc()
	if s.tracing {
		s.emit("boot", obs.I("pm", int64(pm.ID)), obs.S("class", pm.Class.Name), obs.F("ready", ready))
	}
	s.eng.ScheduleTag(ready, Tag{Kind: evBootDone, Arg: int64(pm.ID)})
}

func (s *simulator) onBootDone(pm *cluster.PM) {
	s.meter.Advance(s.eng.Now())
	if pm.State() != cluster.PMBooting {
		return // failed mid-boot
	}
	pm.SetState(cluster.PMOn)
	delete(s.bootReadyAt, pm.ID)
	s.armFailure(pm)
	s.drainQueue()
}

func (s *simulator) shutdownPM(pm *cluster.PM) {
	if pm.State() != cluster.PMOn || pm.VMCount() > 0 {
		return
	}
	s.meter.Advance(s.eng.Now())
	s.cShutdowns.Inc()
	if s.tracing {
		s.emit("shutdown", obs.I("pm", int64(pm.ID)))
	}
	pm.SetState(cluster.PMShuttingDown)
	s.disarmFailure(pm)
	s.eng.ScheduleTag(s.eng.Now()+pm.Class.OnOffOverhead, Tag{Kind: evShutdownDone, Arg: int64(pm.ID)})
}

func (s *simulator) onShutdownDone(pm *cluster.PM) {
	s.meter.Advance(s.eng.Now())
	if pm.State() == cluster.PMShuttingDown {
		pm.SetState(cluster.PMOff)
	}
}

func (s *simulator) onCreationDone(vm *cluster.VM) {
	if vm == nil || vm.State != cluster.VMCreating {
		return // gone, or re-queued by a failure during creation
	}
	now := s.eng.Now()
	s.meter.Advance(now)
	vm.State = cluster.VMRunning
	vm.StartTime = now
	s.lifeEvent[vm.ID] = s.eng.ScheduleTag(now+vm.ActualRuntime, Tag{Kind: evDeparture, Arg: int64(vm.ID)})
}

func (s *simulator) onDeparture(vm *cluster.VM) {
	if vm == nil || (vm.State != cluster.VMRunning && vm.State != cluster.VMMigrating) {
		return // gone, or failure re-queued it and a fresh departure will be scheduled
	}
	now := s.eng.Now()
	s.meter.Advance(now)
	host := s.dc.PM(vm.Host)
	if host == nil {
		panic(fmt.Sprintf("sim: departing VM %d has no host", vm.ID))
	}
	if hold, ok := s.holds[vm.ID]; ok {
		s.releaseHold(vm.ID, hold)
	}
	if err := host.Evict(vm); err != nil {
		panic(fmt.Sprintf("sim: departure eviction failed: %v", err))
	}
	vm.State = cluster.VMFinished
	vm.FinishTime = now
	s.dropVM(vm.ID)
	delete(s.lifeEvent, vm.ID)
	s.res.Summary.VMsCompleted++
	if s.ctrl != nil {
		s.ctrl.RecordCompletion(vm.ActualRuntime)
	}
	s.cDeparts.Inc()
	if s.tracing {
		s.emit("depart", obs.I("vm", int64(vm.ID)), obs.I("pm", int64(host.ID)),
			obs.I("migrations", int64(vm.Migrations)))
	}

	s.drainQueue()
	s.consolidate()
}

func (s *simulator) onControlTick() {
	now := s.eng.Now()
	s.meter.Advance(now)
	active, util := s.dc.ActiveCount(), s.meanNonIdleUtilization()
	s.res.ActivePMs.Append(float64(active))
	s.res.MeanUtilization.Append(util)

	s.cfg.Obs.SetGauge("sim.active_pms", float64(active))
	s.cfg.Obs.SetGauge("sim.queue_len", float64(len(s.queue)))
	if s.tracing {
		s.emit("tick", obs.I("active", int64(active)),
			obs.F("util", util), obs.I("queue", int64(len(s.queue))))
	}

	if s.ctrl != nil {
		plan := s.ctrl.PlanSpares(now, s.dc)
		s.res.SparePlans = append(s.res.SparePlans, plan)
		s.spareTarget = s.cfg.Placer.SpareTarget(s.ctx(), plan.Spares)
		if s.tracing {
			s.emit("spare_plan", obs.I("spares", int64(plan.Spares)),
				obs.I("n_arrival", int64(plan.NArrival)), obs.I("n_departure", int64(plan.NDeparture)),
				obs.F("n_ave", plan.NAve), obs.F("expected_arrivals", plan.ExpectedArrivals))
		}
	} else if now > 0 {
		s.spareTarget = s.cfg.Placer.SpareTarget(s.ctx(), 0)
	}
	s.drainQueue()
	s.powerManage()

	// Keep ticking while there is anything left to simulate. Pending
	// counts live events only, so a backlog of cancelled timers cannot
	// keep the tick chain alive.
	if s.eng.Pending() > 0 || len(s.queue) > 0 {
		s.eng.ScheduleTag(now+controlPeriod, Tag{Kind: evControlTick})
	}
	s.tickRan = true
}

func (s *simulator) onFailure(pm *cluster.PM) {
	if pm.State() != cluster.PMOn {
		return
	}
	now := s.eng.Now()
	s.meter.Advance(now)
	delete(s.failEvent, pm.ID)
	s.res.Failures++
	s.inj.Fail(pm)
	s.cFailures.Inc()
	if s.tracing {
		s.emit("failure", obs.I("pm", int64(pm.ID)), obs.I("victims", int64(pm.VMCount())),
			obs.F("reliability", pm.Reliability()))
	}
	pm.SetState(cluster.PMFailed)

	// All hosted VMs are treated as new requests (Section III.C).
	// Unwind any migration holds touching this PM: holds owned by its
	// VMs (migrating in when the target failed), and holds whose source
	// is this PM (the in-flight VM lives elsewhere but its reservation
	// dies with the machine). The unwind runs in VM-ID order — ranging
	// the map directly would release reservations in nondeterministic
	// order, and when several holds share a source the intermediate
	// Used values (hence the scheme's probabilities) would depend on it.
	var unwind []cluster.VMID
	for id, hold := range s.holds {
		if hold.source == pm || pm.HasVM(id) {
			unwind = append(unwind, id)
		}
	}
	slices.Sort(unwind)
	for _, id := range unwind {
		hold := s.holds[id]
		s.releaseHold(id, hold)
		if hold.vm.State == cluster.VMMigrating {
			hold.vm.State = cluster.VMRunning
		}
	}
	victims := pm.VMs()
	for _, vm := range victims {
		if vm.State == cluster.VMMigrating {
			vm.State = cluster.VMRunning // hold already unwound above
		}
		if ev, ok := s.lifeEvent[vm.ID]; ok {
			ev.Cancel()
			delete(s.lifeEvent, vm.ID)
		}
		if err := pm.Evict(vm); err != nil {
			panic(fmt.Sprintf("sim: failure eviction: %v", err))
		}
		// Progress is lost: the VM restarts from scratch elsewhere,
		// exactly as a re-submitted request would.
		vm.State = cluster.VMQueued
		if !s.tryPlace(vm) {
			s.enqueue(vm)
		}
	}
	if s.inj.RepairTime() > 0 {
		s.eng.ScheduleTag(now+s.inj.RepairTime(), Tag{Kind: evRepaired, Arg: int64(pm.ID)})
	} else {
		pm.SetState(cluster.PMOff)
	}
	s.consolidate()
}

func (s *simulator) onRepaired(pm *cluster.PM) {
	s.meter.Advance(s.eng.Now())
	if pm.State() == cluster.PMFailed {
		pm.SetState(cluster.PMOff)
	}
}

// --- helpers ---

func (s *simulator) armFailure(pm *cluster.PM) {
	if s.inj == nil {
		return
	}
	ttf := s.inj.SampleTimeToFailure()
	s.failEvent[pm.ID] = s.eng.ScheduleTag(s.eng.Now()+ttf, Tag{Kind: evFailure, Arg: int64(pm.ID)})
}

func (s *simulator) disarmFailure(pm *cluster.PM) {
	if ev, ok := s.failEvent[pm.ID]; ok {
		ev.Cancel()
		delete(s.failEvent, pm.ID)
	}
}

// drainQueue re-attempts placement for queued VMs in FIFO order, asking
// the placer only about a VM some PM written since the last drain can
// host. The skip is exact under the Place contract (nil only when no
// active PM can host, and a nil call changes nothing): a queued VM fit no
// PM at its last attempt, every write since is in qfeed, so when no PM
// qfeed names can host it, Place would return nil. Within the drain, a PM
// an earlier VM filled fails CanHost by itself.
func (s *simulator) drainQueue() {
	if len(s.queue) == 0 {
		return
	}
	changed := s.qfeed.Take()
	// Filter in place: tryPlace never touches the queue.
	still := s.queue[:0]
	for _, vm := range s.queue {
		if !s.admissible(vm, changed) || !s.tryPlace(vm) {
			still = append(still, vm)
		}
	}
	clear(s.queue[len(still):])
	s.queue = still
	s.ensureBoots()
}

// admissible reports whether any PM in changed can host vm now.
func (s *simulator) admissible(vm *cluster.VM, changed []cluster.PMID) bool {
	for _, id := range changed {
		if s.dc.PM(id).CanHost(vm.Demand) {
			return true
		}
	}
	return false
}

// consolidate runs the scheme's migration pass and tallies moves. Under
// the timed-migration model each move additionally holds the VM's
// resources on the source PM and parks the VM in the Migrating state until
// the transfer window elapses.
func (s *simulator) consolidate() {
	moves, err := s.cfg.Placer.Consolidate(s.ctx())
	if err != nil {
		panic(fmt.Sprintf("sim: consolidation failed: %v", err))
	}
	if len(moves) == 0 {
		return
	}
	s.res.Moves = append(s.res.Moves, moves...)
	s.cMigrates.Add(int64(len(moves)))
	for _, mv := range moves {
		if s.tracing {
			s.emit("migration", obs.I("vm", int64(mv.VM)), obs.I("from", int64(mv.From)),
				obs.I("to", int64(mv.To)), obs.F("gain", mv.Gain), obs.I("round", int64(mv.Round)))
		}
	}
	if !s.cfg.TimedMigrations {
		return
	}
	for _, mv := range moves {
		s.beginTimedMigration(mv)
	}
}

// migrationHold records the source-side double occupancy of an in-flight
// migration.
type migrationHold struct {
	vm     *cluster.VM
	source *cluster.PM
	demand vector.V
	done   Event
}

// beginTimedMigration converts an already-applied (instant) move into a
// timed one: reserve the demand back on the source, mark the VM migrating,
// and schedule cutover at now + T_mig of the target class. If the source
// no longer has room for the hold (another placement raced into the freed
// space within this same consolidation pass), the migration degrades to
// instant — the resources genuinely moved, there is nothing left to hold.
func (s *simulator) beginTimedMigration(mv core.Move) {
	vm := s.vm(int64(mv.VM))
	if vm == nil || vm.Host != mv.To || vm.State != cluster.VMRunning {
		return
	}
	source := s.dc.PM(mv.From)
	if source == nil || !source.Active() {
		return
	}
	if err := source.Reserve(vm.Demand); err != nil {
		return
	}
	vm.State = cluster.VMMigrating
	hold := &migrationHold{vm: vm, source: source, demand: vm.Demand.Clone()}
	hold.done = s.eng.ScheduleTag(s.eng.Now()+s.dc.PM(mv.To).Class.MigrationTime,
		Tag{Kind: evMigCutover, Arg: int64(vm.ID)})
	s.holds[vm.ID] = hold
}

func (s *simulator) finishTimedMigration(hold *migrationHold) {
	if hold == nil {
		return // released already; its cutover went with it
	}
	s.meter.Advance(s.eng.Now())
	s.releaseHold(hold.vm.ID, hold)
	if hold.vm.State == cluster.VMMigrating {
		hold.vm.State = cluster.VMRunning
	}
}

// releaseHold returns a hold's reservation, tolerating a source PM that
// failed (its accounting was reset when its VMs were evicted; reservations
// on a failed machine are moot but must still be unwound).
func (s *simulator) releaseHold(id cluster.VMID, hold *migrationHold) {
	if s.holds[id] != hold {
		return // already released
	}
	delete(s.holds, id)
	hold.done.Cancel()
	if hold.demand.LE(hold.source.Reserved()) {
		hold.source.Release(hold.demand)
	}
}

// powerManage enforces the active-server policy: keep exactly spareTarget
// idle PMs on (booting counts toward the target), shut down the rest, boot
// more if short. With a non-empty queue nothing is shut down.
//
// It runs only at control-period boundaries ("we periodically determine
// the active PMs", Section IV): enforcing it after every event makes the
// fleet thrash — consolidation empties a PM, it powers down, and the next
// arrival minutes later pays a full boot delay. An idle machine therefore
// survives at most one control period.
func (s *simulator) powerManage() {
	if len(s.queue) > 0 {
		return
	}
	idle := s.idleBuf[:0]
	booting := 0
	for _, pm := range s.dc.PMs() {
		switch {
		case pm.Idle():
			idle = append(idle, pm)
		case pm.State() == cluster.PMBooting:
			booting++
		}
	}
	s.idleBuf = idle
	have := len(idle) + booting
	switch {
	case have > s.spareTarget:
		// Shut down the least efficient idle machines first (highest
		// idle power per minimal-VM slot).
		excess := have - s.spareTarget
		rmin := s.dc.RMinShared()
		slices.SortStableFunc(idle, func(a, b *cluster.PM) int {
			return cmp.Compare(idleCost(b, rmin), idleCost(a, rmin))
		})
		for _, pm := range idle {
			if excess <= 0 {
				break
			}
			s.shutdownPM(pm)
			excess--
		}
	case have < s.spareTarget:
		needed := s.spareTarget - have
		s.bootCandidates(func(pm *cluster.PM) bool {
			s.bootPM(pm)
			needed--
			return needed > 0
		})
	}
}

// meanNonIdleUtilization averages the joint utilization over PMs that
// host at least one VM, or 0 when none do.
func (s *simulator) meanNonIdleUtilization() float64 {
	sum, n := 0.0, 0
	for _, pm := range s.dc.PMs() {
		if pm.Active() && pm.VMCount() > 0 {
			sum += pm.Utilization()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// idleCost ranks idle PMs for shutdown: watts of idle draw per minimal-VM
// slot; higher is shut down first.
func idleCost(pm *cluster.PM, rmin vector.V) float64 {
	w := pm.Class.MaxMinimalVMs(rmin)
	if w == 0 {
		return math.Inf(1)
	}
	return pm.Class.IdlePower / float64(w)
}

func (s *simulator) finalizeResult() {
	sum := &s.res.Summary
	sum.Scheme = s.res.Scheme
	sum.TotalEnergyKWh = power.KWh(s.meter.TotalEnergy())
	sum.MeanActivePMs = s.res.ActivePMs.Mean()
	sum.PeakActivePMs = s.res.ActivePMs.Max()
	sum.Migrations = len(s.res.Moves)
	sum.Boots = s.boots
	if len(s.waits) > 0 {
		var tot float64
		for _, w := range s.waits {
			tot += w
		}
		sum.MeanWaitSeconds = tot / float64(len(s.waits))
		sum.QueuedFraction = float64(s.queuedCount) / float64(len(s.waits))
		sorted := slices.Clone(s.waits)
		slices.Sort(sorted)
		sum.WaitP50 = stats.PercentileSorted(sorted, 50)
		sum.WaitP95 = stats.PercentileSorted(sorted, 95)
		sum.WaitP99 = stats.PercentileSorted(sorted, 99)
	}

	s.res.EnergyKWh = metrics.NewSeries(s.res.Scheme, meterBin)
	for _, j := range s.meter.Bins() {
		s.res.EnergyKWh.Append(power.KWh(j))
	}

	s.res.EnergyByClassKWh = make(map[string]float64)
	s.res.PMEnergyKWh = make(map[cluster.PMID]float64, s.dc.Size())
	for _, pm := range s.dc.PMs() {
		kwh := power.KWh(s.meter.PMEnergy(pm.ID))
		s.res.EnergyByClassKWh[pm.Class.Name] += kwh
		s.res.PMEnergyKWh[pm.ID] = kwh
	}
}
