package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
)

// This file runs Algorithm 1 on a canonical pass without building an engine
// (DESIGN.md §13, "Step B per pass" and "across passes"): a lazy greedy over
// upper bounds on each column's normalized gain, Minoux's accelerated
// greedy. A column's bound is its shape's largest group product rel * eff
// (the runner-up when the largest is its host alone) over its host's
// hosted-cell probability cur — index and roster state, no p_vir, so
// nothing that ages. With p_vir in [0, 1], rounding monotonicity gives
// fl(fl(vir*rel)*eff) <= fl(rel*eff) and fl(p/cur) <= fl(v/cur): the bound
// dominates the exact gain bit-for-bit; and as fl(v/cur) does not grow with
// cur, a shape's hosts walked in cur order can stop at the first one, other
// than the runner-up's, whose bound is not above MIG_threshold. Each round
// sweeps the bounds and scans the survivors exactly in bound order until no
// bound left can beat the best gain. Round 1's sweep is the emptiness
// proof: when it keeps nothing, the pass ends there.

// shapeTop is a shape's two largest products rel * eff over its non-empty
// score groups, scanned once per round: v1 >= v2 are the top two group by
// group (equal when two groups tie), and sole is the only member of v1's
// group, or -1 when it has several. The host exclusion needs the runner-up:
// a shape's best group is very often the column's own host one level up,
// which the column's scan skips.
type shapeTop struct {
	pass   uint64 // ctx.pass of the scan
	v1, v2 float64
	sole   int32
}

// topFor returns sh's top two products as of pass, rescanning when the
// stored ones are an earlier pass's.
func (sh *candShape) topFor(pass uint64) *shapeTop {
	if sh.top.pass != pass {
		sh.scanTop(pass)
	}
	return &sh.top
}

func (sh *candShape) scanTop(pass uint64) {
	t := &sh.top
	*t = shapeTop{pass: pass, sole: -1}
	for gi := range sh.groups {
		g := &sh.groups[gi]
		if len(g.members) == 0 {
			continue
		}
		switch v := g.rel * g.effVal; {
		case v > t.v1:
			t.v1, t.v2, t.sole = v, t.v1, -1
			if len(g.members) == 1 {
				t.sole = g.members[0]
			}
		case v > t.v2:
			t.v2 = v
		}
	}
}

// survivor is a column a round's sweep could not rule out: its bound key
// exceeds MIG_threshold. Its normalizer is its host's cur in the roster.
type survivor struct {
	vm    *cluster.VM
	key   float64
	shape int32 // id into ctx.shapeTab
}

// sweep is a round's bound pass over the synced roster: per shape, fresh top
// products, then one cell per host in (cur asc, ID asc) order — bound
// (sole ? v2 : v1) / cur, +Inf for cur <= 0 — keeping the cell's Running VMs
// of the shape in ctx.swept until a host other than sole bounds them at or
// below threshold. declined reports a kept column with cur <= 0.
func (ctx *Context) sweep(x *candIndex, threshold float64) (declined bool) {
	ro := ctx.roster
	ctx.pass++
	out, cells := ctx.swept[:0], 0
	for sid, hosts := range ro.hosts {
		if len(hosts) == 0 {
			continue
		}
		t := x.shape(int32(sid)).topFor(ctx.pass)
		for _, h := range hosts {
			cells++
			cur, v, bound := ro.pms[h].cur, t.v1, math.Inf(1)
			if h == t.sole {
				v = t.v2
			}
			if cur > 0 {
				bound = v / cur
			}
			if !(bound > threshold) {
				if h == t.sole {
					continue
				}
				break
			}
			for _, e := range ro.bucket(h) {
				if e.shape == int32(sid) && e.vm.State == cluster.VMRunning {
					out = append(out, survivor{e.vm, bound, e.shape})
					declined = declined || !(cur > 0)
				}
			}
		}
	}
	ctx.swept = out
	ctx.metrics().boundCells.Add(int64(cells))
	return declined
}

// choice is a round's best move: vm to PM id, its raw probability,
// normalizer and gain. vm is nil when no column has a positive gain.
type choice struct {
	vm           *cluster.VM
	shape, id    int32
	p, cur, gain float64
}

// choose is Algorithm 1's argmax over the swept columns, taken lazily: in
// (bound desc, VM ID asc) order each column is scanned exactly — the score
// groups with its own p_vir, candShape.best — until the next bound is below
// the best gain, or equal to it on a higher ID, which can then at most tie
// and lose on the ID. The answer is colTrackers.Best's (gain desc, column
// asc, row asc) over every column whose gain can exceed the threshold — the
// columns ascend by ID. scans counts the exact scans.
func (ctx *Context) choose(x *candIndex) (best choice, scans int) {
	slices.SortFunc(ctx.swept, func(a, b survivor) int {
		if a.key != b.key {
			return cmp.Compare(b.key, a.key)
		}
		return cmp.Compare(a.vm.ID, b.vm.ID)
	})
	best = choice{id: -1}
	for _, s := range ctx.swept {
		if best.vm != nil && (s.key < best.gain || (s.key == best.gain && s.vm.ID > best.vm.ID)) {
			break
		}
		cur := ctx.roster.pms[s.vm.Host].cur
		ctx.virBuf = ctx.appendVirs(ctx.virBuf[:0], s.vm)
		id, p := x.shape(s.shape).best(int32(s.vm.Host), cur, ctx.virBuf)
		scans++
		if g := normGain(int(id), p, cur); g > best.gain || (g == best.gain && best.vm != nil && s.vm.ID < best.vm.ID) {
			best = choice{s.vm, s.shape, id, p, cur, g}
		}
	}
	return best, scans
}

// consolidateLazy is a canonical pass over the synced roster: Algorithm 1
// as a lazy greedy over the sweep's bounds, moving VMs with no engine built.
// A pass whose first sweep keeps no column ends there: it is proven empty by
// the bounds alone.
func (ctx *Context) consolidateLazy(factors []Factor, params Params, opts MatrixOptions) (moves []Move, err error) {
	x := ctx.candidates()
	phase := ctx.metrics().prove.Span()
	start := phase.Begin()
	declined := ctx.sweep(x, params.MIGThreshold)
	phase.End(start)
	if opts.CandidateK > 0 {
		x.countOverflow(ctx.roster, opts.CandidateK)
	}
	if declined {
		ctx.metrics().declined.Add(1)
	}
	if len(ctx.swept) > 0 || ctx.SelfAudit {
		phase = ctx.metrics().rounds.Span()
		start = phase.Begin()
		moves, err = ctx.lazyRounds(x, factors, params)
		phase.End(start)
	}
	if len(moves) == 0 && err == nil {
		ctx.metrics().provenEmpty.Add(1)
	}
	return moves, err
}

// lazyRounds runs the pass's rounds from a finished first sweep: choose,
// collect the move's alternatives when the Context records decisions,
// migrate, re-sync both endpoints in the index and the roster, sweep again.
// Under SelfAudit every round is held to a cold dense Matrix first.
func (ctx *Context) lazyRounds(x *candIndex, factors []Factor, params Params) (moves []Move, err error) {
	scans := 0
	record := ctx.Obs.DecisionTracing()
	for round := 1; ; round++ {
		ch, n := ctx.choose(x)
		scans += n
		if ctx.SelfAudit {
			if err = ctx.auditRound(factors, ch, params.MIGThreshold); err != nil {
				break
			}
		}
		if !(ch.gain > params.MIGThreshold) {
			break
		}
		vm := ch.vm
		mv := Move{VM: vm.ID, From: vm.Host, To: cluster.PMID(ch.id), Gain: ch.gain, Round: round}
		if record {
			ctx.virBuf = ctx.appendVirs(ctx.virBuf[:0], vm)
			ctx.alts = append(ctx.alts, x.alternatives(x.shape(ch.shape), int32(vm.Host), ch.cur, ctx.virBuf, ch.id, altDepth))
		}
		if err = Migrate(vm, x.pms[mv.From], x.pms[ch.id]); err != nil {
			break
		}
		x.sync()         // re-derives the two endpoints
		ctx.syncRoster() // re-reads them
		moves = append(moves, mv)
		if round == params.MIGRound {
			break
		}
		ctx.sweep(x, params.MIGThreshold)
	}
	if scans > 0 {
		ctx.metrics().scans.Add(int64(scans))
	}
	return moves, err
}

// auditRound holds one round to a cold dense Matrix built over
// MigratableVMs (checkRound).
func (ctx *Context) auditRound(factors []Factor, ch choice, threshold float64) error {
	phase := ctx.metrics().build.Span()
	start := phase.Begin()
	ref, err := NewMatrix(ctx, factors, MigratableVMs(ctx.DC))
	phase.End(start)
	if err != nil {
		return err
	}
	defer ref.Release()
	return ctx.checkRound(ref, ch, threshold)
}

// CheckProof runs a pass's first round on this Context — the roster's sync,
// the sweep and the lazy choice — and holds it to ref (checkRound): the
// auditor's SparseCheck holds it to a dense Matrix built on a fresh Context,
// the fuzz harnesses to one built on this Context after every operation.
// ref must be freshly built over MigratableVMs — the sweep reads the live
// fleet — with a Canonical factor list.
func (ctx *Context) CheckProof(ref *Matrix, threshold float64) error {
	if !Canonical(ref.factors) {
		return fmt.Errorf("core: the lazy rounds cover the canonical default factors only")
	}
	x := ctx.candidates()
	ctx.syncRoster()
	ctx.sweep(x, threshold)
	ch, _ := ctx.choose(x)
	return ctx.checkRound(ref, ch, threshold)
}

// checkRound holds the round that left ctx.swept and chose ch to ref, a cold
// dense Matrix over the Running VMs of the same fleet. The candidate index
// must pass its structural check and every swept VM must be a column. In
// every column the roster's hosted-cell probability is ref's normalizer, the
// group scan (candShape.best) finds ref's best row at ref's raw probability
// bit-for-bit, no swept bound lies below ref's gain, and a column the sweep
// left out has no gain above the threshold. The choice is ref's Best
// bit-for-bit — or, when the round ends the pass, ref has no gain above the
// threshold either.
func (ctx *Context) checkRound(ref *Matrix, ch choice, threshold float64) error {
	x := ctx.cand
	if err := x.check(); err != nil {
		return err
	}
	key := make([]float64, len(ref.vms))
	for _, s := range ctx.swept {
		c, found := slices.BinarySearchFunc(ref.vms, s.vm.ID, func(vm *cluster.VM, id cluster.VMID) int { return cmp.Compare(vm.ID, id) })
		if !found || ref.vms[c] != s.vm {
			return fmt.Errorf("core: the sweep kept VM %d, which is not a column of the cold build", s.vm.ID)
		}
		key[c] = s.key
	}
	for c, vm := range ref.vms {
		cur := ctx.roster.pms[vm.Host].cur
		ctx.virBuf = ctx.appendVirs(ctx.virBuf[:0], vm)
		id, p := x.shape(ctx.shapeID(vm.Demand)).best(int32(vm.Host), cur, ctx.virBuf)
		want := int32(-1)
		if r := ref.bestRow[c]; r >= 0 {
			want = int32(ref.pms[r].ID)
		}
		switch {
		case cur != ref.curProb[c]:
			return fmt.Errorf("core: VM %d hosted-cell probability %g in the roster, cold build %g", vm.ID, cur, ref.curProb[c])
		case id != want || math.Float64bits(p) != math.Float64bits(ref.bestP[c]):
			return fmt.Errorf("core: VM %d group scan (PM %d, p %g), cold build (PM %d, p %g)", vm.ID, id, p, want, ref.bestP[c])
		case key[c] == 0 && ref.bestGain[c] > threshold:
			return fmt.Errorf("core: VM %d left out of the sweep, but its built gain %g exceeds MIG_threshold %g", vm.ID, ref.bestGain[c], threshold)
		case key[c] != 0 && key[c] < ref.bestGain[c]:
			return fmt.Errorf("core: VM %d gain bound %g below its built gain %g", vm.ID, key[c], ref.bestGain[c])
		}
	}
	r, c, gain, ok := ref.Best()
	switch moves := ok && gain > threshold; {
	case !(ch.gain > threshold):
		if moves {
			return fmt.Errorf("core: the lazy round ended the pass, but VM %d has gain %g above MIG_threshold %g", ref.vms[c].ID, gain, threshold)
		}
	case !moves:
		return fmt.Errorf("core: the lazy round moves VM %d at gain %g, the cold build's best gain is %g", ch.vm.ID, ch.gain, gain)
	case ref.vms[c] != ch.vm || ref.pms[r].ID != cluster.PMID(ch.id) || math.Float64bits(gain) != math.Float64bits(ch.gain):
		return fmt.Errorf("core: the lazy round chose VM %d -> PM %d at gain %g, the cold build VM %d -> PM %d at %g",
			ch.vm.ID, ch.id, ch.gain, ref.vms[c].ID, ref.pms[r].ID, gain)
	}
	return nil
}
