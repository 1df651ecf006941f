package audit

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/vector"
)

// harness drives a small datacenter through a byte-encoded operation
// sequence — arrivals, departures, consolidation passes, PM failures,
// boots, and shutdowns — auditing the full invariant set after every
// operation. It is the executable argument that the incremental state the
// simulator maintains cannot drift from first principles, whatever order
// events arrive in.
type harness struct {
	t       *testing.T
	dc      *cluster.Datacenter
	ctx     *core.Context
	factors []core.Factor
	meter   *power.Meter
	aud     *Auditor

	now    float64
	nextID cluster.VMID
	live   []*cluster.VM

	arrived, finished, rejected int
}

// demandPalette bounds arrival shapes to what the harness fleet can host.
var demandPalette = []vector.V{
	vector.New(1, 0.25),
	vector.New(1, 0.5),
	vector.New(1, 1),
	vector.New(2, 1),
	vector.New(4, 2),
}

func newHarness(t *testing.T) *harness {
	fast := cluster.FastClass
	slow := cluster.SlowClass
	dc := cluster.MustNew(cluster.Config{
		RMin: cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{
			{Class: &fast, Count: 3},
			{Class: &slow, Count: 5},
		},
	})
	for i, pm := range dc.PMs() {
		if i < 4 {
			pm.SetState(cluster.PMOn)
		}
	}
	h := &harness{
		t:       t,
		dc:      dc,
		ctx:     core.NewContext(dc),
		factors: core.DefaultFactors(),
		meter:   power.NewMeter(dc, 3600),
		aud:     &Auditor{},
		nextID:  1,
	}
	h.aud.Register(StateCheck(dc))
	h.aud.Register(EnergyCheck(h.meter, dc))
	h.aud.Register(ConservationCheck(dc, func() (int, int, int, int) {
		return h.arrived, 0, h.finished, h.rejected
	}))
	// The lazy-rounds differential: the first round of a pass on this
	// Context, held to core's cold reference after every operation.
	h.aud.Register(SparseCheck(h.ctx, h.factors, func() float64 { return 1.05 }))
	// The passes run through ConsolidateWith on this Context, so the check
	// syncs the roster they left, once per operation, whatever the
	// operation.
	h.aud.Register(RosterCheck(h.ctx))
	return h
}

// step consumes two bytes (opcode, argument) and applies one operation.
func (h *harness) step(op, arg byte) {
	h.now += float64(arg)
	h.meter.Advance(h.now)
	switch op % 6 {
	case 0:
		h.arrival(arg)
	case 1:
		h.departure(arg)
	case 2:
		h.consolidate(arg)
	case 3:
		h.failPM(arg)
	case 4:
		h.bootPM(arg)
	case 5:
		h.shutdownPM(arg)
	}
	if err := h.aud.RunPeriod(h.now); err != nil {
		h.t.Fatalf("after op %d (arg %d) at t=%g: %v", op%6, arg, h.now, err)
	}
}

func (h *harness) arrival(arg byte) {
	if len(h.live) >= 64 { // cap the population; treat as a departure
		h.departure(arg)
		return
	}
	demand := demandPalette[int(arg)%len(demandPalette)]
	runtime := float64(int(arg)%7+1) * 100
	vm := cluster.NewVM(h.nextID, demand, runtime, runtime, h.now)
	h.nextID++
	h.arrived++
	pm := core.BestPlacement(h.ctx.At(h.now), h.factors, vm)
	if pm == nil {
		h.rejected++
		return
	}
	if err := pm.Host(vm); err != nil {
		// A positive probability implies feasibility; a Host failure
		// here is itself an invariant violation.
		h.t.Fatalf("BestPlacement chose infeasible PM %d for VM %d: %v", pm.ID, vm.ID, err)
	}
	vm.State = cluster.VMRunning
	vm.StartTime = h.now
	h.live = append(h.live, vm)
}

func (h *harness) departure(arg byte) {
	if len(h.live) == 0 {
		return
	}
	i := int(arg) % len(h.live)
	vm := h.live[i]
	host := h.dc.PM(vm.Host)
	if err := host.Evict(vm); err != nil {
		h.t.Fatalf("departure eviction of VM %d: %v", vm.ID, err)
	}
	vm.State = cluster.VMFinished
	vm.FinishTime = h.now
	h.finished++
	h.live = append(h.live[:i], h.live[i+1:]...)
}

// consolidate runs a pass of up to arg%3+1 rounds of Algorithm 1 the way a
// run does (core.ConsolidateWith: the lazy rounds on the candidate index);
// the step's SparseCheck then holds the next pass's first round over the
// state it left to core's cold reference.
func (h *harness) consolidate(arg byte) {
	params := core.Params{MIGThreshold: 1.05, MIGRound: int(arg)%3 + 1}
	if _, err := core.ConsolidateWith(h.ctx.At(h.now), h.factors, params, core.MatrixOptions{}); err != nil {
		h.t.Fatalf("consolidate: %v", err)
	}
}

// failPM kills a powered-on machine: every hosted VM is evicted and either
// re-placed from scratch or counted finished (progress lost, user gave up).
func (h *harness) failPM(arg byte) {
	on := h.dc.ActivePMs()
	if len(on) <= 1 {
		return // keep at least one machine alive
	}
	pm := on[int(arg)%len(on)]
	victims := pm.VMs()
	pmOff := func() {
		pm.SetState(cluster.PMOff)
	}
	if len(victims) == 0 {
		pmOff()
		return
	}
	for _, vm := range victims {
		if err := pm.Evict(vm); err != nil {
			h.t.Fatalf("failure eviction: %v", err)
		}
		h.removeLive(vm)
		target := core.BestPlacement(h.ctx.At(h.now), h.factors, vm)
		if target == nil || target == pm {
			vm.State = cluster.VMFinished
			h.finished++
			continue
		}
		if err := target.Host(vm); err != nil {
			h.t.Fatalf("re-place after failure: %v", err)
		}
		vm.State = cluster.VMRunning
		h.live = append(h.live, vm)
	}
	pmOff()
}

func (h *harness) removeLive(vm *cluster.VM) {
	for i, v := range h.live {
		if v == vm {
			h.live = append(h.live[:i], h.live[i+1:]...)
			return
		}
	}
}

func (h *harness) bootPM(arg byte) {
	off := slices.DeleteFunc(slices.Clone(h.dc.PMs()), func(p *cluster.PM) bool { return p.State() != cluster.PMOff })
	if len(off) == 0 {
		return
	}
	off[int(arg)%len(off)].SetState(cluster.PMOn)
}

func (h *harness) shutdownPM(arg byte) {
	idle := slices.DeleteFunc(slices.Clone(h.dc.PMs()), func(p *cluster.PM) bool { return !p.Idle() })
	if len(idle) <= 1 {
		return
	}
	idle[int(arg)%len(idle)].SetState(cluster.PMOff)
}

func runOps(t *testing.T, data []byte) *harness {
	h := newHarness(t)
	for i := 0; i+1 < len(data); i += 2 {
		h.step(data[i], data[i+1])
	}
	return h
}

// FuzzOperations lets the fuzzer search for an operation sequence that
// breaks any audited invariant. `make fuzz-smoke` gives it a short budget
// on every CI run; the corpus seeds cover each opcode.
func FuzzOperations(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 2, 5, 1, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 7, 2, 9, 4, 1, 5, 2, 1, 1})
	f.Add([]byte{4, 0, 0, 200, 0, 130, 2, 250, 3, 3, 0, 60, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runOps(t, data)
	})
}

// TestRandomOperationsAudit is the deterministic fuzz pass the acceptance
// criteria require: at least 1000 randomized operations, every one audited
// (runs under -race in `make race`). The byte stream comes from a fixed
// xorshift generator so failures reproduce exactly.
func TestRandomOperationsAudit(t *testing.T) {
	const ops = 1200
	data := make([]byte, 2*ops)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range data {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		data[i] = byte(state >> 32)
	}
	h := runOps(t, data)
	if h.aud.Checks() < 4*ops {
		t.Fatalf("only %d checks ran over %d ops", h.aud.Checks(), ops)
	}
	if h.arrived == 0 || h.finished == 0 {
		t.Fatalf("degenerate run: arrived=%d finished=%d", h.arrived, h.finished)
	}
	t.Logf("ops=%d arrived=%d finished=%d rejected=%d checks=%d",
		ops, h.arrived, h.finished, h.rejected, h.aud.Checks())
}
