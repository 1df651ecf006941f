package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
)

// This file runs Algorithm 1 on a canonical pass without building an engine
// (DESIGN.md §13, "Step B per pass"): a lazy greedy over upper bounds on
// each column's normalized gain, the technique of Minoux's accelerated
// greedy. The bounds come from state that does not age with the clock: the
// candidate index's score groups and each host's hosted-cell probability.
// The only factor of a gain that ages is p_vir (Eq. 3), and it lies in
// [0, 1] because class overheads are validated non-negative; within a pass
// the clock does not move at all, so nothing here is kept across passes.
//
// A column's bound is its shape's largest group product rel * eff over the
// host's hosted-cell probability (the runner-up when the largest is the
// host alone). IEEE-754 multiplication, and division by a positive operand,
// are monotone under rounding, so fl(fl(vir*rel)*eff) <= fl(rel*eff) and
// fl(p/cur) <= fl(v/cur): the bound dominates the column's exact gain
// bit-for-bit. Each round sweeps the bounds, keeps the columns whose bound
// exceeds MIG_threshold, and scans them exactly in bound order until no
// bound left can beat the best exact gain. Round 1's sweep is the emptiness
// proof: when it keeps nothing, the pass ends there.

// hostMemo is one PM's hosted-cell probability for the canonical program —
// p_res = p_vir = 1 on the host, so reliability times the efficiency term at
// the present utilization — valid while the PM's (Version, reliability)
// stamp stands. It holds no p_vir, so it lives across passes.
type hostMemo struct {
	ver uint64 // pm.Version() + 1; 0 = never computed
	rel uint64 // math.Float64bits(pm.Reliability)
	p   float64
}

// hostedProb is frame.hostProb with the memo kept per PM for the run (the
// first sweep allocates it). A cold engine derives its own per-pass
// normalizer, which is what SelfAudit holds this one to (checkRound).
func (ctx *Context) hostedProb(pm *cluster.PM) float64 {
	m := &ctx.hostMemo[pm.ID]
	if ver, rel := pm.Version()+1, math.Float64bits(pm.Reliability); m.ver != ver || m.rel != rel {
		*m = hostMemo{ver, rel, pm.Reliability * effProbability(ctx.classInfoFor(pm), pm.Utilization())}
	}
	return m.p
}

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

// gainBound returns cur, the hosted-cell probability of vm's host (an
// active PM), and an upper bound on the normalized gain of vm's column,
// whose shape id is sid: +Inf when cur is not positive (the +Inf rescue
// rule), so such a column is always scanned.
func (x *candIndex) gainBound(vm *cluster.VM, sid int32) (cur, bound float64) {
	sh := x.shape(sid)
	if cur = x.ctx.hostedProb(x.pms[vm.Host]); !(cur > 0) {
		return cur, math.Inf(1)
	}
	t := sh.topFor(x.ctx.pass)
	v := t.v1
	if t.sole == int32(vm.Host) {
		v = t.v2
	}
	return cur, v / cur
}

// survivor is a column a round's sweep could not rule out: its bound
// exceeds MIG_threshold.
type survivor struct {
	c        int32
	cur, key float64 // hosted-cell probability, gain bound
}

// sweep is a round's bound pass: it re-takes every shape's top products for
// the present fleet and leaves in ctx.swept the columns whose bound exceeds
// threshold. declined reports a column with no positive normalizer. It
// fails, with frame.init's errors, on adjacent column IDs out of order and
// on a host that is not an active PM. Columns are walked from the back, the
// order frame.init meets their shapes in, so the index tracks new shapes in
// the order it always has.
func (ctx *Context) sweep(x *candIndex, vms []*cluster.VM, shapes []int32, threshold float64) (declined bool, err error) {
	if ctx.hostMemo == nil {
		ctx.hostMemo = make([]hostMemo, len(x.pms))
	}
	ctx.pass++
	out := ctx.swept[:0]
	for c := len(vms) - 1; c >= 0; c-- {
		vm := vms[c]
		if c > 0 && vms[c-1].ID >= vm.ID {
			return false, fmt.Errorf("core: VM %d duplicated or out of ID order in matrix", vm.ID)
		}
		if h := vm.Host; h < 0 || int(h) >= len(x.pms) || !x.pms[h].Active() {
			return false, fmt.Errorf("core: VM %d hosted on inactive PM %d", vm.ID, h)
		}
		cur, bound := x.gainBound(vm, shapes[c])
		declined = declined || !(cur > 0)
		if bound > threshold {
			out = append(out, survivor{int32(c), cur, bound})
		}
	}
	ctx.swept = out
	return declined, nil
}

// choice is a round's best move: column c to PM id, its raw probability,
// normalizer and gain. c is -1 when no column has a positive gain.
type choice struct {
	c, id        int32
	p, cur, gain float64
}

// choose is Algorithm 1's argmax over the swept columns, taken lazily: in
// (bound desc, column asc) order each column is scanned exactly — the score
// groups with its own p_vir, candShape.best — until the next bound is below
// the best gain, or equal to it on a higher column, which can then at most
// tie and lose on the column. The answer is colTrackers.Best's (gain desc,
// column asc, row asc) over every column whose gain can exceed the
// threshold. scans counts the exact scans.
func (ctx *Context) choose(x *candIndex, vms []*cluster.VM, shapes []int32) (best choice, scans int) {
	slices.SortFunc(ctx.swept, func(a, b survivor) int {
		if a.key != b.key {
			return cmp.Compare(b.key, a.key)
		}
		return cmp.Compare(a.c, b.c)
	})
	best = choice{c: -1, id: -1}
	for _, s := range ctx.swept {
		if best.c >= 0 && (s.key < best.gain || (s.key == best.gain && s.c > best.c)) {
			break
		}
		vm, sh := vms[s.c], x.shape(shapes[s.c])
		ctx.virBuf = ctx.appendVirs(ctx.virBuf[:0], vm)
		id, p := sh.best(int32(vm.Host), s.cur, ctx.virBuf)
		scans++
		if g := normGain(int(id), p, s.cur); g > best.gain || (g == best.gain && s.c < best.c) {
			best = choice{s.c, id, p, s.cur, g}
		}
	}
	return best, scans
}

// consolidateLazy is a canonical pass: Algorithm 1 as a lazy greedy over
// the sweep's bounds, moving VMs with no engine built. A pass whose first
// sweep keeps no column ends there: it is proven empty by the bounds alone.
func (ctx *Context) consolidateLazy(factors []Factor, vms []*cluster.VM, shapes []int32, params Params, opts MatrixOptions) (moves []Move, err error) {
	x := ctx.candidatesWith(opts.Workers)
	phase := ctx.Obs.Phase("prove_empty")
	start := phase.Begin()
	declined, err := ctx.sweep(x, vms, shapes, params.MIGThreshold)
	phase.End(start)
	if err != nil {
		return nil, err
	}
	if opts.CandidateK > 0 {
		x.countOverflow(shapes, opts.CandidateK)
	}
	if declined {
		ctx.Obs.Add("core.bound_declined", 1)
	}
	if len(ctx.swept) > 0 || opts.SelfAudit {
		phase = ctx.Obs.Phase("algo1_rounds")
		start = phase.Begin()
		moves, err = ctx.lazyRounds(x, factors, vms, shapes, params, opts)
		phase.End(start)
	}
	if len(moves) == 0 && err == nil {
		ctx.Obs.Add("core.passes_proven_empty", 1)
	}
	return moves, err
}

// lazyRounds runs the pass's rounds from a finished first sweep: choose,
// report the move to the decision hook, migrate, re-sync both endpoints in
// the index (the hosted-cell memo follows their Version stamps), sweep
// again. Under SelfAudit every round is held to a cold engine first.
func (ctx *Context) lazyRounds(x *candIndex, factors []Factor, vms []*cluster.VM, shapes []int32, params Params, opts MatrixOptions) (moves []Move, err error) {
	scans := 0
	for round := 1; ; round++ {
		ch, n := ctx.choose(x, vms, shapes)
		scans += n
		if opts.SelfAudit {
			if err = ctx.auditRound(factors, vms, shapes, ch, params.MIGThreshold, opts); err != nil {
				break
			}
		}
		if !(ch.gain > params.MIGThreshold) {
			break
		}
		vm := vms[ch.c]
		mv := Move{VM: vm.ID, From: vm.Host, To: cluster.PMID(ch.id), Gain: ch.gain, Round: round}
		if hook := opts.DecisionHook; hook != nil {
			ctx.virBuf = ctx.appendVirs(ctx.virBuf[:0], vm)
			hook(round, mv, x.alternatives(x.shape(shapes[ch.c]), int32(vm.Host), ch.cur, ctx.virBuf, ch.id, altDepth))
		}
		if err = migrate(vm, x.pms[mv.From], x.pms[ch.id]); err != nil {
			break
		}
		x.syncPM(int32(mv.From))
		x.syncPM(ch.id)
		moves = append(moves, mv)
		if round == params.MIGRound {
			break
		}
		if _, err = ctx.sweep(x, vms, shapes, params.MIGThreshold); err != nil {
			break
		}
	}
	if scans > 0 {
		ctx.Obs.Add("core.exact_column_scans", int64(scans))
	}
	return moves, err
}

// auditRound holds one round to a cold SparseMatrix built over the same
// columns (checkRound); a round that moves also holds that engine to a cold
// dense rebuild, so every move is checked against the dense oracle.
func (ctx *Context) auditRound(factors []Factor, vms []*cluster.VM, shapes []int32, ch choice, threshold float64, opts MatrixOptions) error {
	phase := ctx.Obs.Phase("kernel_build")
	start := phase.Begin()
	cold, err := newSparseMatrix(ctx, factors, vms, shapes, MatrixOptions{Workers: opts.Workers})
	phase.End(start)
	if err != nil {
		return err
	}
	defer cold.Release()
	if err := cold.checkRound(ch, threshold); err != nil {
		return err
	}
	if ch.gain > threshold {
		return cold.verifyDense()
	}
	return nil
}

// CheckProof runs a pass's first round — the sweep and the lazy choice —
// over the engine's columns on the Context it was built on, and holds it to
// the engine's trackers (checkRound). It is the differential surface of
// this file: the auditor's SparseCheck calls it on its cold sparse build,
// the fuzz harnesses on a dense Matrix after every operation. The engine
// must be freshly built — the sweep reads the live fleet — over a Canonical
// factor list.
func (f *frame) CheckProof(threshold float64) error {
	if !Canonical(f.factors) {
		return fmt.Errorf("core: the lazy rounds cover the canonical default factors only")
	}
	x := f.ctx.candidatesWith(f.opts.Workers)
	if _, err := f.ctx.sweep(x, f.vms, f.colShape, threshold); err != nil {
		return err
	}
	ch, _ := f.ctx.choose(x, f.vms, f.colShape)
	return f.checkRound(ch, threshold)
}

// checkRound holds the round that left ctx.swept and chose ch to the cold
// engine built on f over the same columns and fleet: the run's hosted-cell
// memo is the engine's normalizer in every column, no swept bound lies
// below its column's built gain, no column the sweep left out has a built
// gain above the threshold, and the choice is the engine's Best
// bit-for-bit — or, when the round ends the pass, the engine has no gain
// above the threshold either.
func (f *frame) checkRound(ch choice, threshold float64) error {
	key := make([]float64, len(f.vms))
	for _, s := range f.ctx.swept {
		key[s.c] = s.key
	}
	for c, vm := range f.vms {
		switch cur := f.ctx.hostedProb(f.pms[f.curRow[c]]); {
		case cur != f.curProb[c]:
			return fmt.Errorf("core: VM %d hosted-cell memo %g, cold build %g", vm.ID, cur, f.curProb[c])
		case key[c] == 0 && f.bestGain[c] > threshold:
			return fmt.Errorf("core: VM %d left out of the sweep, but its built gain %g exceeds MIG_threshold %g", vm.ID, f.bestGain[c], threshold)
		case key[c] != 0 && key[c] < f.bestGain[c]:
			return fmt.Errorf("core: VM %d gain bound %g below its built gain %g", vm.ID, key[c], f.bestGain[c])
		}
	}
	r, c, gain, ok := f.Best()
	switch moves := ok && gain > threshold; {
	case !(ch.gain > threshold):
		if moves {
			return fmt.Errorf("core: the lazy round ended the pass, but VM %d has gain %g above MIG_threshold %g", f.vms[c].ID, gain, threshold)
		}
	case !moves:
		return fmt.Errorf("core: the lazy round moves VM %d at gain %g, the cold engine's best gain is %g", f.vms[ch.c].ID, ch.gain, gain)
	case c != int(ch.c) || f.pms[r].ID != cluster.PMID(ch.id) || math.Float64bits(gain) != math.Float64bits(ch.gain):
		return fmt.Errorf("core: the lazy round chose VM %d -> PM %d at gain %g, the cold engine VM %d -> PM %d at %g",
			f.vms[ch.c].ID, ch.id, ch.gain, f.vms[c].ID, f.pms[r].ID, gain)
	}
	return nil
}
