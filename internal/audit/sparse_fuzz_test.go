package audit

import (
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the sparse-vs-dense differential fuzz harness: two
// identically built datacenters walk the same byte-encoded operation
// stream, with every placement decision made cell by cell on side A — the
// arrival ranking, and Algorithm 1 on every Running VM's ranked column
// every round (denseRounds) — and by the candidate index, through core's
// entry points, on side B. After
// each operation the decisions and the resulting fleet states must match
// exactly — PM choices, consolidation move lists, per-PM usage vectors,
// reliability bits, and hosted-VM sets. Any divergence is a bug in one of
// the two paths; side A, which reads every cell through core.Joint, is the
// reference.
//
// Compared to the FuzzOperations harness this one adds a reliability-decay
// opcode: the candidate index groups PMs partly by reliability bits, so
// decayed fleets exercise group splits the failure-free harness never
// produces.

// sparseSide is one of the two mirrored fleets.
type sparseSide struct {
	dc  *cluster.Datacenter
	ctx *core.Context
	vms map[cluster.VMID]*cluster.VM
}

func newSparseSide() *sparseSide {
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
	// The side records decisions, so each pass collects its moves'
	// alternatives (core.Context.MoveAlternatives).
	ctx := core.NewContext(dc)
	ctx.Obs = &obs.Observer{Decisions: obs.NewTracer(io.Discard)}
	return &sparseSide{dc: dc, ctx: ctx, vms: make(map[cluster.VMID]*cluster.VM)}
}

// sparseHarness drives the mirrored pair through one operation stream.
type sparseHarness struct {
	t       testing.TB
	a, b    *sparseSide // a = dense oracle, b = candidate index
	factors []core.Factor
	k       int

	now    float64
	nextID cluster.VMID
	live   []cluster.VMID // IDs live on both sides, arrival order

	arrived, rejected, moves  int
	provenEmpty, provenMoving int // emptiness-proof verdicts confirmed, by kind
}

func newSparseHarness(t testing.TB, k int) *sparseHarness {
	h := &sparseHarness{
		t:       t,
		a:       newSparseSide(),
		b:       newSparseSide(),
		factors: core.DefaultFactors(),
		k:       k,
		nextID:  1,
	}
	h.b.ctx.SelfAudit = true
	return h
}

func (h *sparseHarness) opts() core.MatrixOptions {
	return core.MatrixOptions{CandidateK: h.k}
}

// step consumes two bytes (opcode, argument), applies one mirrored
// operation, and verifies the fleets are still in lockstep.
func (h *sparseHarness) step(op, arg byte) {
	h.now += float64(arg)
	switch op % 7 {
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
	case 6:
		h.decayReliability(arg)
	}
	h.compareFleets(op, arg)
	h.checkProof(op, arg)
}

// proofThresholds are the MIG_threshold values the emptiness proof is held
// to after every operation: the harness's own, and one high enough that
// most fleets come to rest under it.
var proofThresholds = []float64{1.05, 1.6}

// checkProof holds the first round side B's passes open with — the sweep
// over its run-long hosted-cell memo and the live index's group products,
// whatever the operations so far have done to them, and the lazy choice —
// to core's cold reference over side B's fleet (core's CheckProof): the
// index is sound, every column's group scan finds the reference's best
// alternative, every swept bound is at least the reference's gain, no
// column left out can move, and the choice is the reference's Best.
func (h *sparseHarness) checkProof(op, arg byte) {
	if len(core.MigratableVMs(h.b.dc)) == 0 {
		return
	}
	ctx := h.b.ctx.At(h.now)
	_, best := bestColumn(ctx, h.factors)
	for _, threshold := range proofThresholds {
		if err := ctx.CheckProof(h.factors, threshold); err != nil {
			h.t.Fatalf("after op %d (arg %d) at t=%g, threshold %g: %v", op%7, arg, h.now, threshold, err)
		}
		if best != nil && best[0].Probability > threshold {
			h.provenMoving++
		} else {
			h.provenEmpty++
		}
	}
}

// denseBest is side A's arrival argmax: the head of the cell-by-cell column
// ranking, nil when no PM scores above zero.
func denseBest(ctx *core.Context, factors []core.Factor, vm *cluster.VM) *cluster.PM {
	if ranked := core.RankPlacements(ctx, factors, vm); len(ranked) > 0 {
		return ranked[0].PM
	}
	return nil
}

// arrival creates the same VM on both sides and asks each engine for a
// host: the dense argmax on side A, the candidate index on side B. The two
// answers must name the same PM (or both reject).
func (h *sparseHarness) arrival(arg byte) {
	if len(h.live) >= 64 {
		h.departure(arg)
		return
	}
	demand := demandPalette[int(arg)%len(demandPalette)]
	// Long runtimes relative to the clock's per-op advance keep most of
	// the population migratable (Eq. 3 zeroes out VMs near completion),
	// so consolidation decisions stay non-trivial deep into the stream.
	runtime := float64(int(arg)%7+1) * 5000
	id := h.nextID
	h.nextID++
	h.arrived++
	va := cluster.NewVM(id, demand, runtime, runtime, h.now)
	vb := cluster.NewVM(id, demand, runtime, runtime, h.now)

	pa := denseBest(h.a.ctx.At(h.now), h.factors, va)
	pb := core.BestPlacementWith(h.b.ctx.At(h.now), h.factors, vb, h.opts())
	switch {
	case pa == nil && pb == nil:
		h.rejected++
		return
	case pa == nil || pb == nil:
		h.t.Fatalf("arrival VM %d at t=%g: dense chose %v, sparse chose %v",
			id, h.now, placementID(pa), placementID(pb))
	case pa.ID != pb.ID:
		h.t.Fatalf("arrival VM %d at t=%g: dense chose PM %d, sparse chose PM %d",
			id, h.now, pa.ID, pb.ID)
	}
	h.hostOn(h.a, va, pa.ID)
	h.hostOn(h.b, vb, pb.ID)
	h.live = append(h.live, id)
}

func placementID(pm *cluster.PM) any {
	if pm == nil {
		return "reject"
	}
	return pm.ID
}

func (h *sparseHarness) hostOn(s *sparseSide, vm *cluster.VM, id cluster.PMID) {
	if err := s.dc.PM(id).Host(vm); err != nil {
		h.t.Fatalf("hosting VM %d on chosen PM %d: %v", vm.ID, id, err)
	}
	vm.State = cluster.VMRunning
	vm.StartTime = h.now
	s.vms[vm.ID] = vm
}

func (h *sparseHarness) departure(arg byte) {
	if len(h.live) == 0 {
		return
	}
	i := int(arg) % len(h.live)
	id := h.live[i]
	h.live = append(h.live[:i], h.live[i+1:]...)
	for _, s := range []*sparseSide{h.a, h.b} {
		vm := s.vms[id]
		if err := s.dc.PM(vm.Host).Evict(vm); err != nil {
			h.t.Fatalf("departure eviction of VM %d: %v", id, err)
		}
		vm.State = cluster.VMFinished
		delete(s.vms, id)
	}
}

// consolidate runs Algorithm 1 on both sides — the cold dense reference on
// A, the lazy rounds on B — and requires identical move lists: same VMs,
// same endpoints, bit-identical gains, same rounds. At every applied move
// the two sides' ranked alternatives for the moved column (the
// cell-by-cell ranking on A, the candidate shortlist B's pass collects on
// its Context, both depth 4) must name the same PMs with bit-equal gains.
// The sparse side runs under its Context's SelfAudit.
func (h *sparseHarness) consolidate(arg byte) {
	params := core.Params{MIGThreshold: 1.05, MIGRound: int(arg)%3 + 1}
	movesA, altsA := denseRounds(h.t, h.a.ctx.At(h.now), h.factors, params)
	movesB, err := core.ConsolidateWith(h.b.ctx.At(h.now), h.factors, params, h.opts())
	if err != nil {
		h.t.Fatalf("sparse consolidate: %v", err)
	}
	altsB := h.b.ctx.MoveAlternatives()
	if len(altsB) != len(movesB) {
		h.t.Fatalf("consolidate at t=%g: %d alternative lists collected, the pass made %d moves",
			h.now, len(altsB), len(movesB))
	}
	if len(movesA) != len(movesB) {
		h.t.Fatalf("consolidate at t=%g: dense made %d moves %+v, sparse %d moves %+v",
			h.now, len(movesA), movesA, len(movesB), movesB)
	}
	for i := range movesA {
		if movesA[i] != movesB[i] {
			h.t.Fatalf("consolidate at t=%g move %d: dense %+v != sparse %+v",
				h.now, i, movesA[i], movesB[i])
		}
		a, b := altsA[i], altsB[i]
		if len(a) != len(b) || len(a) == 0 || a[0].PM.ID != movesA[i].To {
			h.t.Fatalf("consolidate at t=%g move %d: %d dense vs %d sparse alternatives (head must be PM %d)",
				h.now, i, len(a), len(b), movesA[i].To)
		}
		for j := range a {
			if a[j].PM.ID != b[j].PM.ID ||
				math.Float64bits(a[j].Probability) != math.Float64bits(b[j].Probability) {
				h.t.Fatalf("consolidate at t=%g move %d alternative %d: dense (PM %d, %v) != sparse (PM %d, %v)",
					h.now, i, j, a[j].PM.ID, a[j].Probability, b[j].PM.ID, b[j].Probability)
			}
		}
	}
	h.moves += len(movesA)
}

// denseRounds runs Algorithm 1 over ctx's Running VMs cell by cell: every
// round the largest head gain among the columns (bestColumn) moves through
// core.Migrate while it exceeds MIG_threshold. Each move's alternatives are
// its column, which is what core.Context.MoveAlternatives keeps.
func denseRounds(t testing.TB, ctx *core.Context, factors []core.Factor, params core.Params) (moves []core.Move, alts [][]core.Placement) {
	for round := 1; round <= params.MIGRound; round++ {
		vm, col := bestColumn(ctx, factors)
		if vm == nil || !(col[0].Probability > params.MIGThreshold) {
			break
		}
		to := col[0].PM
		alts = append(alts, col)
		moves = append(moves, core.Move{VM: vm.ID, From: vm.Host, To: to.ID, Gain: col[0].Probability, Round: round})
		if err := core.Migrate(vm, ctx.DC.PM(vm.Host), to); err != nil {
			t.Fatalf("dense move: %v", err)
		}
	}
	return moves, alts
}

// bestColumn is Algorithm 1's argmax over ctx's Running VMs: the column
// whose head has the largest gain, the lowest VM ID on ties, or nil when no
// column has an alternative.
func bestColumn(ctx *core.Context, factors []core.Factor) (vm *cluster.VM, best []core.Placement) {
	for _, v := range core.MigratableVMs(ctx.DC) {
		if col := column(ctx, factors, v); len(col) > 0 && (vm == nil || col[0].Probability > best[0].Probability) {
			vm, best = v, col
		}
	}
	return vm, best
}

// column is placed VM vm's column read cell by cell: its ranking
// (core.RankPlacements: probability desc, PM ID asc) without its host,
// normalized by its hosted cell and cut to depth 4 — or, when that cell is
// 0, its lowest-ID PM of positive probability alone at +Inf. The head is
// the column's best alternative at its gain.
func column(ctx *core.Context, factors []core.Factor, vm *cluster.VM) []core.Placement {
	cur := core.Joint(ctx, factors, vm, ctx.DC.PM(vm.Host), true)
	var col []core.Placement
	for _, pl := range core.RankPlacements(ctx, factors, vm) {
		switch {
		case pl.PM.ID == vm.Host:
		case !(cur > 0):
			if len(col) == 0 || pl.PM.ID < col[0].PM.ID {
				col = []core.Placement{{PM: pl.PM, Probability: math.Inf(1)}}
			}
		case len(col) < 4:
			col = append(col, core.Placement{PM: pl.PM, Probability: pl.Probability / cur})
		}
	}
	return col
}

// failPM kills the same powered-on machine on both sides; victims are
// re-placed by each side's engine, and the chosen targets must agree.
func (h *sparseHarness) failPM(arg byte) {
	on := h.a.dc.ActivePMs()
	if len(on) <= 1 {
		return
	}
	id := on[int(arg)%len(on)].ID
	pmA, pmB := h.a.dc.PM(id), h.b.dc.PM(id)
	for _, vm := range pmA.VMs() {
		va, vb := h.a.vms[vm.ID], h.b.vms[vm.ID]
		if err := pmA.Evict(va); err != nil {
			h.t.Fatalf("failure eviction: %v", err)
		}
		if err := pmB.Evict(vb); err != nil {
			h.t.Fatalf("failure eviction (sparse side): %v", err)
		}
		ta := denseBest(h.a.ctx.At(h.now), h.factors, va)
		tb := core.BestPlacementWith(h.b.ctx.At(h.now), h.factors, vb, h.opts())
		if (ta == nil) != (tb == nil) || (ta != nil && ta.ID != tb.ID) {
			h.t.Fatalf("re-place of VM %d after PM %d failure: dense %v, sparse %v",
				vm.ID, id, placementID(ta), placementID(tb))
		}
		if ta == nil || ta.ID == id {
			va.State = cluster.VMFinished
			vb.State = cluster.VMFinished
			delete(h.a.vms, vm.ID)
			delete(h.b.vms, vm.ID)
			h.removeLive(vm.ID)
			continue
		}
		if err := ta.Host(va); err != nil {
			h.t.Fatalf("re-place after failure: %v", err)
		}
		if err := h.b.dc.PM(tb.ID).Host(vb); err != nil {
			h.t.Fatalf("re-place after failure (sparse side): %v", err)
		}
		va.State, vb.State = cluster.VMRunning, cluster.VMRunning
	}
	pmA.SetState(cluster.PMOff)
	pmB.SetState(cluster.PMOff)
}

func (h *sparseHarness) removeLive(id cluster.VMID) {
	for i, v := range h.live {
		if v == id {
			h.live = append(h.live[:i], h.live[i+1:]...)
			return
		}
	}
}

func (h *sparseHarness) bootPM(arg byte) {
	off := slices.DeleteFunc(slices.Clone(h.a.dc.PMs()), func(p *cluster.PM) bool { return p.State() != cluster.PMOff })
	if len(off) == 0 {
		return
	}
	id := off[int(arg)%len(off)].ID
	h.a.dc.PM(id).SetState(cluster.PMOn)
	h.b.dc.PM(id).SetState(cluster.PMOn)
}

func (h *sparseHarness) shutdownPM(arg byte) {
	idle := slices.DeleteFunc(slices.Clone(h.a.dc.PMs()), func(p *cluster.PM) bool { return !p.Idle() })
	if len(idle) <= 1 {
		return
	}
	id := idle[int(arg)%len(idle)].ID
	h.a.dc.PM(id).SetState(cluster.PMOff)
	h.b.dc.PM(id).SetState(cluster.PMOff)
}

// decayReliability multiplies one active PM's reliability the way the
// failure model does (failure.Injector.Fail), splitting its score group:
// the candidate index must track the new reliability bits on its next
// sync.
func (h *sparseHarness) decayReliability(arg byte) {
	on := h.a.dc.ActivePMs()
	if len(on) == 0 {
		return
	}
	id := on[int(arg)%len(on)].ID
	factor := 0.50 + float64(int(arg)%50)/100
	for _, s := range []*sparseSide{h.a, h.b} {
		pm := s.dc.PM(id)
		pm.SetReliability(max(pm.Reliability()*factor, 0.01))
	}
}

// compareFleets requires the two sides bit-identical: PM states, usage
// vectors, reliability, and hosted-VM sets.
func (h *sparseHarness) compareFleets(op, arg byte) {
	if err := h.a.dc.CheckInvariants(); err != nil {
		h.t.Fatalf("dense side after op %d (arg %d): %v", op%7, arg, err)
	}
	if err := h.b.dc.CheckInvariants(); err != nil {
		h.t.Fatalf("sparse side after op %d (arg %d): %v", op%7, arg, err)
	}
	// The roster, two ways. Side A's Context never runs a pass through
	// ConsolidateWith, so its roster is synced here and only here, one
	// operation at a time. Side B's is left alone between its passes, which
	// check it themselves (SelfAudit, see consolidate) after re-reading
	// everything the operations in between piled up.
	if err := h.a.ctx.CheckColumns(); err != nil {
		h.t.Fatalf("dense side after op %d (arg %d): %v", op%7, arg, err)
	}
	pmsA, pmsB := h.a.dc.PMs(), h.b.dc.PMs()
	for i := range pmsA {
		pa, pb := pmsA[i], pmsB[i]
		if pa.State() != pb.State() {
			h.t.Fatalf("after op %d at t=%g: PM %d state %s (dense) != %s (sparse)",
				op%7, h.now, pa.ID, pa.State(), pb.State())
		}
		if math.Float64bits(pa.Reliability()) != math.Float64bits(pb.Reliability()) {
			h.t.Fatalf("after op %d at t=%g: PM %d reliability %v != %v",
				op%7, h.now, pa.ID, pa.Reliability(), pb.Reliability())
		}
		if !pa.Used.Equal(pb.Used) {
			h.t.Fatalf("after op %d at t=%g: PM %d used %v (dense) != %v (sparse)",
				op%7, h.now, pa.ID, pa.Used, pb.Used)
		}
		va, vb := pa.VMs(), pb.VMs()
		if len(va) != len(vb) {
			h.t.Fatalf("after op %d at t=%g: PM %d hosts %d VMs (dense) vs %d (sparse)",
				op%7, h.now, pa.ID, len(va), len(vb))
		}
		for j := range va {
			if va[j].ID != vb[j].ID {
				h.t.Fatalf("after op %d at t=%g: PM %d slot %d hosts VM %d (dense) vs VM %d (sparse)",
					op%7, h.now, pa.ID, j, va[j].ID, vb[j].ID)
			}
		}
	}
}

// sweepSeeds and sweepOps size TestSparseDifferentialSweep.
var sweepSeeds = []uint64{
	0x9E3779B97F4A7C15, 0xD1B54A32D192ED03, 0x2545F4914F6CDD1D, 0x123456789ABCDEF1,
	0xA24BAED4963EE407, 0x8CB92BA72F3D8DD7, 0xDA942042E4DD58B5, 0xFF51AFD7ED558CCD,
}

const sweepOps = 260

func runSparseOps(t testing.TB, data []byte, k int) *sparseHarness {
	h := newSparseHarness(t, k)
	for i := 0; i+1 < len(data); i += 2 {
		h.step(data[i], data[i+1])
	}
	return h
}

// sweepStream is the byte-encoded operation stream of one sweep seed, from
// a fixed xorshift generator so failures reproduce exactly.
func sweepStream(seed uint64, ops int) []byte {
	data := make([]byte, 2*ops)
	state := seed
	for j := range data {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		data[j] = byte(state >> 32)
	}
	return data
}

// FuzzSparseOperations lets the fuzzer search for an operation sequence on
// which the candidate index diverges from the cell-by-cell side. The seeds
// cover each opcode including reliability decay, a K=1 run where every
// shape overflows its candidate budget, and one sweep stream long enough
// for multi-round consolidations, whose later rounds depend on the index's
// re-sync of each move's endpoints.
func FuzzSparseOperations(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 2, 5, 1, 0}, 16)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 6, 4, 2, 9, 3, 7, 4, 1, 5, 2, 1, 1}, 16)
	f.Add([]byte{4, 0, 0, 200, 0, 130, 6, 11, 2, 250, 3, 3, 0, 60, 1, 9}, 1)
	f.Add(sweepStream(sweepSeeds[4], sweepOps), 16)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		if k <= 0 || k > 256 {
			k = 16
		}
		runSparseOps(t, data, k)
	})
}

// TestSparseDifferentialSweep is the deterministic bug sweep the issue
// requires: at least 2000 operations across at least 8 seeds, every
// decision differentially checked against the dense oracle (runs under
// -race in `make race`).
func TestSparseDifferentialSweep(t *testing.T) {
	arrived, moves, provenEmpty, provenMoving := 0, 0, 0, 0
	for i, seed := range sweepSeeds {
		data := sweepStream(seed, sweepOps)
		// Alternate candidate budgets: generous (groups fit) and
		// deliberately overflowing (K=1), which must change nothing but a
		// counter.
		k := 16
		if i%2 == 1 {
			k = 1
		}
		h := runSparseOps(t, data, k)
		arrived += h.arrived
		moves += h.moves
		provenEmpty += h.provenEmpty
		provenMoving += h.provenMoving
	}
	if arrived == 0 || moves == 0 || provenEmpty == 0 || provenMoving == 0 {
		t.Fatalf("degenerate sweep: arrived=%d moves=%d passes proven empty=%d moving=%d", arrived, moves, provenEmpty, provenMoving)
	}
	t.Logf("seeds=%d ops/seed=%d arrived=%d moves=%d proofs: %d empty, %d moving",
		len(sweepSeeds), sweepOps, arrived, moves, provenEmpty, provenMoving)
}
