package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/vector"
)

// This file holds the lazy rounds (bound.go) to the cold dense reference.
// Two identically built fleets walk the same operation stream — the opcodes
// and the fleet of internal/audit's FuzzSparseOperations — and after every
// operation each runs one consolidation pass: lazily through
// ConsolidateWith, and round by round on a cold Matrix built afresh each
// round. The move lists (VM, endpoints, Gain bits, Round) and each move's
// alternatives (the lazy side's MoveAlternatives, the dense side's
// cell-by-cell ranking, columnAlternatives) must agree
// exactly, every moving round's sweep is held to the dense trackers of the
// same round — no swept bound below its column's gain, no column left out
// whose gain exceeds the threshold — and after every pass the bucket sweep
// is held to a cold column sweep (checkBuckets).

// lazyFleet is the FuzzSparseOperations fleet: the Table II fast/slow mix,
// three fast and five slow PMs, the first four on.
func lazyFleet(testing.TB) *Context {
	fast, slow := cluster.FastClass, cluster.SlowClass
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 3}, {Class: &slow, Count: 5}},
	})
	for _, pm := range dc.PMs()[:4] {
		pm.SetState(cluster.PMOn)
	}
	return NewContext(dc)
}

// coreFleet is a one-core world in which gains tie bit-for-bit: eight-core
// PMs whose levels count cores and whose efficiency is 1, PM i of migration
// overhead overhead[i] (PMs of equal overhead share a class) and
// reliability rel[i], hosting hosted[i] one-core VMs with 400 s left, IDs
// ascending PM by PM.
func coreFleet(overhead, rel []float64, hosted []int) *Context {
	return coreFleetOf(8, overhead, rel, hosted)
}

// coreFleetOf is coreFleet with PMs of the given number of cores.
func coreFleetOf(cores float64, overhead, rel []float64, hosted []int) *Context {
	var groups []cluster.Group
	for i, o := range overhead {
		if i == 0 || o != overhead[i-1] {
			class := &cluster.PMClass{Name: fmt.Sprint("o", o), Capacity: vector.V{cores}, MigrationTime: o, ActivePower: 80, IdlePower: 40, Reliability: 1}
			groups = append(groups, cluster.Group{Class: class})
		}
		groups[len(groups)-1].Count++
	}
	dc := cluster.MustNew(cluster.Config{RMin: vector.V{1}, Groups: groups})
	id := cluster.VMID(1)
	for i, pm := range dc.PMs() {
		pm.SetState(cluster.PMOn)
		pm.SetReliability(rel[i])
		for range hosted[i] {
			vm := cluster.NewVM(id, vector.V{1}, 400, 400, 0)
			if err := pm.Host(vm); err != nil {
				panic(err)
			}
			vm.State = cluster.VMRunning
			id++
		}
	}
	return NewContext(dc)
}

// tieFleet: PM 0 (70 s overhead, reliability 1) hosts VMs 1-2 at level 2,
// PMs 1 and 2 (no overhead, reliability 0.5) host VMs 3-6 and 7-10 at level
// 4: every normalizer is 0.25. For the one-core shape PM 0 alone forms the
// top group (1 * 3/8), PMs 1-2 the runner-up (0.5 * 5/8). VMs 1-2 are
// bounded by the runner-up, 1.25, and reach it with p_vir 1, so their gain
// is 1.25 too; VMs 3-10 are bounded by PM 0, 1.5, but with 400 s left its
// p_vir is 0.68 and they also gain 1.25, through each other's PM. Round 1
// scans VMs 3-10, then VM 1, which wins on the column, and stops at VM 2.
func tieFleet(testing.TB) *Context {
	return coreFleet([]float64{70, 0, 0}, []float64{1, 0.5, 0.5}, []int{2, 4, 4})
}

// stairFleet: PMs at levels 1, 2 and 3, no overheads. Round 1 moves PM 0's
// VM to PM 2, whose one-core group product rises from 4/8, the top round 1
// saw, to 5/8 — the bound of PM 1's VMs in round 2 and their gain.
func stairFleet(testing.TB) *Context {
	return coreFleet([]float64{0, 0, 0}, []float64{1, 1, 1}, []int{1, 2, 3})
}

// lazyCase is what the row predicates look at: one moving round of one pass.
type lazyCase struct {
	round     int
	vm        cluster.VMID             // the chosen column's VM
	gain, key float64                  // its gain and its swept key
	swept     []sweptCol               // the round's survivors, in sweep order
	gains     map[cluster.VMID]float64 // every column's gain, from the dense engine
	soleHosts int                      // columns hosted on their shape's lone top PM
	raised    bool                     // a shape's top product is above round 1's
}

// sweptCol is one survivor of a logged round.
type sweptCol struct {
	id  cluster.VMID
	key float64
}

// lazyLog is everything a row's stream produced.
type lazyLog struct {
	cases         []lazyCase
	passes, moves int
	capped        int     // passes that stopped at MIG_round
	scans         []int64 // core.exact_column_scans per pass
}

// lazyHarness is two mirrored fleets: lazy rounds and cold dense.
type lazyHarness struct {
	t      testing.TB
	sides  [2]*Context
	params Params
	nextID cluster.VMID
	log    lazyLog
	last   []Move // the last pass's moves
}

var lazyDemands = []vector.V{vector.New(1, 0.25), vector.New(1, 1), vector.New(2, 1), vector.New(1, 2), vector.New(2, 3)}

func newLazyHarness(t testing.TB, fleet func(testing.TB) *Context, params Params) *lazyHarness {
	h := &lazyHarness{t: t, params: params, nextID: 1000}
	for i := range h.sides {
		h.sides[i] = fleet(t)
	}
	return h
}

// each applies fn to the same VM or PM on every side.
func (h *lazyHarness) eachVM(id cluster.VMID, fn func(*cluster.PM, *cluster.VM)) {
	for _, ctx := range h.sides {
		for _, pm := range ctx.DC.PMs() {
			if vm := pm.VM(id); vm != nil {
				fn(pm, vm)
			}
		}
	}
}

func (h *lazyHarness) eachPM(id cluster.PMID, fn func(*cluster.PM)) {
	for _, ctx := range h.sides {
		fn(ctx.DC.PM(id))
	}
}

// step applies one operation (FuzzSparseOperations' opcodes, consolidation
// aside: every step ends in a pass) to both fleets, then the pass.
func (h *lazyHarness) step(op, arg byte) {
	for _, ctx := range h.sides {
		ctx.Now += float64(arg)
	}
	lead := h.sides[0]
	switch op % 6 {
	case 0: // arrival, placed by the index on the lead side
		runtime := float64(int(arg)%7+1) * 5000
		vm := cluster.NewVM(h.nextID, lazyDemands[int(arg)%len(lazyDemands)], runtime, runtime, lead.Now)
		if pm := BestPlacement(lead, DefaultFactors(), vm); pm != nil {
			for _, ctx := range h.sides {
				twin := cluster.NewVM(vm.ID, vm.Demand, runtime, runtime, ctx.Now)
				if err := ctx.DC.PM(pm.ID).Host(twin); err != nil {
					h.t.Fatal(err)
				}
				twin.State, twin.StartTime = cluster.VMRunning, ctx.Now
			}
		}
		h.nextID++
	case 1: // departure
		if live := MigratableVMs(lead.DC); len(live) > 0 {
			h.eachVM(live[int(arg)%len(live)].ID, func(pm *cluster.PM, vm *cluster.VM) {
				if err := pm.Evict(vm); err != nil {
					h.t.Fatal(err)
				}
				vm.State = cluster.VMFinished
			})
		}
	case 2: // failure: the victims finish
		if on := lead.DC.ActivePMs(); len(on) > 1 {
			id := on[int(arg)%len(on)].ID
			for _, vm := range lead.DC.PM(id).VMs() {
				h.eachVM(vm.ID, func(pm *cluster.PM, vm *cluster.VM) {
					if err := pm.Evict(vm); err != nil {
						h.t.Fatal(err)
					}
					vm.State = cluster.VMFinished
				})
			}
			h.eachPM(id, func(pm *cluster.PM) { pm.SetState(cluster.PMFailed) })
		}
	case 3: // boot
		if off := slices.DeleteFunc(slices.Clone(lead.DC.PMs()), func(p *cluster.PM) bool { return p.State() != cluster.PMOff }); len(off) > 0 {
			h.eachPM(off[int(arg)%len(off)].ID, func(pm *cluster.PM) { pm.SetState(cluster.PMOn) })
		}
	case 4: // shutdown
		if idle := slices.DeleteFunc(slices.Clone(lead.DC.PMs()), func(p *cluster.PM) bool { return !p.Idle() }); len(idle) > 1 {
			h.eachPM(idle[int(arg)%len(idle)].ID, func(pm *cluster.PM) { pm.SetState(cluster.PMOff) })
		}
	case 5: // reliability decay, as the failure model applies it
		if on := lead.DC.ActivePMs(); len(on) > 0 {
			factor := 0.50 + float64(int(arg)%50)/100
			h.eachPM(on[int(arg)%len(on)].ID, func(pm *cluster.PM) { pm.SetReliability(max(pm.Reliability()*factor, 0.01)) })
		}
	}
	h.pass()
}

// pass runs one consolidation pass both ways and requires them to agree.
// The lazy side is ConsolidateWith, recording decisions so the Context
// collects each move's alternatives. The dense side runs Algorithm 1's
// rounds on a cold Matrix each (denseRounds' loop), and before each move
// logs the round:
// the dense gains, and the sweep and choice the lazy rounds make on the
// same fleet state, taken on the dense side's own Context.
func (h *lazyHarness) pass() {
	t := h.t
	lazy, dense := h.sides[0], h.sides[1]
	var alts [2][][]Placement
	lazy.Obs = obs.New()
	lazy.Obs.Decisions = obs.NewTracer(io.Discard)
	moves, err := ConsolidateWith(lazy, DefaultFactors(), h.params, MatrixOptions{})
	if err != nil {
		t.Fatalf("lazy pass at t=%g: %v", lazy.Now, err)
	}
	alts[0] = lazy.MoveAlternatives()
	h.log.scans = append(h.log.scans, lazy.Obs.Counter("core.exact_column_scans").Value())
	lazy.Obs = nil

	var (
		denseMoves []Move
		cases      []lazyCase
		tops0      []float64 // round 1's top product per shape id
	)
	for round := 1; round <= h.params.MIGRound; round++ {
		m, err := NewMatrix(dense, DefaultFactors(), MigratableVMs(dense.DC))
		if err != nil {
			t.Fatal(err)
		}
		r, c, gain, ok := m.Best()
		if !ok || !(gain > h.params.MIGThreshold) {
			m.Release()
			break
		}
		vm, to := m.vms[c], m.pms[r]
		mv := Move{VM: vm.ID, From: vm.Host, To: to.ID, Gain: gain, Round: round}
		lc, tops := h.lazyRound(dense, mv, m)
		if round == 1 {
			tops0 = tops
		}
		for sid := range tops0 {
			lc.raised = lc.raised || tops[sid] > tops0[sid]
		}
		cases = append(cases, lc)
		alts[1] = append(alts[1], columnAlternatives(dense, DefaultFactors(), vm, m.CurProb(c)))
		m.Release()
		if err := Migrate(vm, dense.DC.PM(vm.Host), to); err != nil {
			t.Fatal(err)
		}
		denseMoves = append(denseMoves, mv)
	}
	assertMovesEqual(t, denseMoves, moves)
	for side := range alts {
		if len(alts[side]) != len(moves) {
			t.Fatalf("side %d has %d alternative lists, the pass made %d moves", side, len(alts[side]), len(moves))
		}
	}
	for i := range moves {
		got, want := alts[0][i], alts[1][i]
		if len(got) != len(want) || len(got) == 0 || got[0].PM.ID != moves[i].To {
			t.Fatalf("move %d: the lazy side has %d alternatives, dense %d (head must be PM %d)", i, len(got), len(want), moves[i].To)
		}
		for j := range got {
			if got[j].PM.ID != want[j].PM.ID || math.Float64bits(got[j].Probability) != math.Float64bits(want[j].Probability) {
				t.Fatalf("move %d alternative %d: lazy (PM %d, %v), dense (PM %d, %v)",
					i, j, got[j].PM.ID, got[j].Probability, want[j].PM.ID, want[j].Probability)
			}
		}
	}
	for _, lc := range cases {
		h.checkSweep(lc)
	}
	checkBuckets(t, lazy, h.params.MIGThreshold)
	h.log.cases = append(h.log.cases, cases...)
	h.last = moves
	h.log.passes++
	h.log.moves += len(moves)
	if len(moves) == h.params.MIGRound {
		h.log.capped++
	}
}

// lazyRound is the lazy rounds' view of one dense round about to make mv:
// the sweep and exact scans on ctx, the dense side's Context, over the
// fleet as it stands, with m's gains, and every shape's top product by
// shape id. The lazy side's round made the same sweep: the moves before
// it were the same, and a sweep reads only the fleet.
func (h *lazyHarness) lazyRound(ctx *Context, mv Move, m *Matrix) (lazyCase, []float64) {
	x := ctx.candidates()
	ctx.syncRoster()
	ctx.sweep(x, h.params.MIGThreshold)
	ch, _ := ctx.choose(x)
	if ch.vm == nil || ch.vm.ID != mv.VM || cluster.PMID(ch.id) != mv.To || math.Float64bits(ch.gain) != math.Float64bits(mv.Gain) {
		h.t.Fatalf("round %d: the dense side moves VM %d to PM %d at %v, the sweep on its fleet chooses %+v", mv.Round, mv.VM, mv.To, mv.Gain, ch)
	}
	lc := lazyCase{round: mv.Round, vm: mv.VM, gain: mv.Gain, gains: make(map[cluster.VMID]float64, len(m.vms))}
	for c, vm := range m.vms {
		lc.gains[vm.ID] = m.bestGain[c]
	}
	for _, s := range ctx.swept {
		lc.swept = append(lc.swept, sweptCol{s.vm.ID, s.key})
		if s.vm.ID == mv.VM {
			lc.key = s.key
		}
	}
	tops := make([]float64, len(x.shapes))
	for sid, sh := range x.shapes {
		if sh != nil {
			tops[sid] = sh.top.v1
		}
	}
	for _, vm := range MigratableVMs(ctx.DC) {
		if x.shapes[ctx.shapeID(vm.Demand)].top.sole == int32(vm.Host) {
			lc.soleHosts++
		}
	}
	return lc, tops
}

// checkSweep holds one moving round's sweep to the dense gains of the same
// round.
func (h *lazyHarness) checkSweep(lc lazyCase) {
	key := make(map[cluster.VMID]float64, len(lc.swept))
	for _, s := range lc.swept {
		key[s.id] = s.key
	}
	for id, g := range lc.gains {
		k, swept := key[id]
		switch {
		case !swept && g > h.params.MIGThreshold:
			h.t.Fatalf("round %d: VM %d left out of the sweep with gain %g", lc.round, id, g)
		case swept && k < g:
			h.t.Fatalf("round %d: VM %d bound %g below its gain %g", lc.round, id, k, g)
		}
	}
}

// The row predicates: which case a moving round exhibits.
func (lc lazyCase) any(pred func(s sweptCol) bool) bool { return slices.ContainsFunc(lc.swept, pred) }

func tieLower(lc lazyCase) bool {
	return lc.any(func(s sweptCol) bool { return s.id > lc.vm && s.key == lc.key && lc.gains[s.id] == lc.gain })
}

func boundAtBestHigher(lc lazyCase) bool {
	return lc.any(func(s sweptCol) bool { return s.id > lc.vm && s.key == lc.gain })
}

func looserHigherFirst(lc lazyCase) bool {
	return lc.key == lc.gain && lc.any(func(s sweptCol) bool { return s.id > lc.vm && s.key > lc.key && lc.gains[s.id] == lc.gain })
}

func rescue(lc lazyCase) bool   { return math.IsInf(lc.gain, 1) }
func soleHost(lc lazyCase) bool { return lc.soleHosts > 0 }
func raised(lc lazyCase) bool   { return lc.round >= 2 && lc.raised }

// lazyStream is a fixed xorshift operation stream, as the audit sweep's.
func lazyStream(seed uint64, ops int) []byte {
	data := make([]byte, 2*ops)
	for j := range data {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		data[j] = byte(seed >> 32)
	}
	return data
}

// TestLazyRounds runs each row's fleet through a pass both ways, then
// through its operation stream with a pass after every operation, and
// requires the row's case to have occurred. scans, when set, pins the
// exact column scans of the first pass; capped requires a pass that
// stopped at MIG_round.
func TestLazyRounds(t *testing.T) {
	withRescue := func(tb testing.TB) *Context {
		ctx := tieFleet(tb)
		ctx.DC.PM(2).SetReliability(0)
		return ctx
	}
	spread := func(tb testing.TB) *Context {
		ctx, _ := spreadState(tb, 100, 260, 11)
		return ctx
	}
	one := Params{MIGThreshold: 1.05, MIGRound: 1}
	rows := []struct {
		name   string
		fleet  func(testing.TB) *Context
		params Params
		stream []byte
		pred   func(lazyCase) bool
		scans  int64
		capped bool
	}{
		{name: "equal bounds and equal gains: the lower column wins", fleet: tieFleet, params: one, pred: tieLower},
		{name: "a bound equal to the best gain on a higher column ends the round", fleet: tieFleet, params: one, pred: boundAtBestHigher, scans: 9},
		{name: "a tight bound on the lowest column after looser higher ones", fleet: tieFleet, params: one, pred: looserHigherFirst},
		{name: "a rescue column", fleet: withRescue, params: one, pred: rescue},
		{name: "a host alone in its shape's top group", fleet: tieFleet, params: one, pred: soleHost, scans: 9},
		{name: "the MIG_round cap", fleet: spread, params: Params{MIGThreshold: 1.05, MIGRound: 3}, capped: true},
		{name: "a move raises a shape's top", fleet: stairFleet, params: DefaultParams(), pred: raised},
		{name: "random operations", fleet: lazyFleet, params: Params{MIGThreshold: 1.05, MIGRound: 3}, stream: lazyStream(0x9E3779B97F4A7C15, 300)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := newLazyHarness(t, row.fleet, row.params)
			h.pass()
			for i := 0; i+1 < len(row.stream); i += 2 {
				h.step(row.stream[i], row.stream[i+1])
			}
			if h.log.moves == 0 {
				t.Fatal("no pass moved anything")
			}
			if row.scans != 0 && h.log.scans[0] != row.scans {
				t.Errorf("the first pass scanned %d columns exactly, want %d", h.log.scans[0], row.scans)
			}
			if row.pred != nil && !slices.ContainsFunc(h.log.cases, row.pred) {
				t.Errorf("no round of %d passes (%d moves) exhibits the row's case", h.log.passes, h.log.moves)
			}
			if row.capped && h.log.capped == 0 {
				t.Errorf("no pass of %d reached MIG_round %d", h.log.passes, row.params.MIGRound)
			}
		})
	}
}

// FuzzLazyRounds lets the fuzzer search for an operation stream on which
// the lazy rounds and the cold dense reference part ways.
func FuzzLazyRounds(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 0, 30, 1, 0}, byte(2))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 5, 4, 2, 9, 3, 7, 4, 1, 0, 2, 1, 1}, byte(1))
	f.Add(lazyStream(0xD1B54A32D192ED03, 200), byte(5))
	f.Fuzz(func(t *testing.T, data []byte, rounds byte) {
		h := newLazyHarness(t, lazyFleet, Params{MIGThreshold: 1.05, MIGRound: int(rounds)%10 + 1})
		for i := 0; i+1 < len(data) && i < 2048; i += 2 {
			h.step(data[i], data[i+1])
		}
	})
}
