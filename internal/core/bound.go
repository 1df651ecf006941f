package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
)

// This file proves a consolidation pass empty before anything is built for
// it (DESIGN.md §13, "Proving a pass empty"). Algorithm 1 migrates only
// while the best normalized gain exceeds MIG_threshold, and three passes in
// four move nothing, so ConsolidateWith asks first whether any column can
// exceed the threshold at all, from state that does not age with the clock:
// the candidate index's score groups and each host's hosted-cell
// probability. The only factor of a gain that ages is p_vir (Eq. 3), and it
// lies in [0, 1] because class overheads are validated non-negative.
//
// Tier 1 bounds a column in O(1) by its shape's largest group product
// rel * eff over the host's hosted-cell probability. IEEE-754
// multiplication, and division by a positive operand, are monotone under
// rounding, so fl(fl(vir*rel)*eff) <= fl(rel*eff) and fl(p/cur) <=
// fl(v/cur): the bound dominates the engine's bestGain bit-for-bit. Tier 2,
// for a column whose bound exceeds the threshold, is the engine's own group
// scan with the column's real p_vir and runRounds' own comparison. A pass is
// empty exactly when no column passes tier 2, so engines are built for the
// passes that move a VM and for no other.

// hostMemo is one PM's hosted-cell probability for the canonical program —
// p_res = p_vir = 1 on the host, so reliability times the efficiency term at
// the present utilization — valid while the PM's (Version, reliability)
// stamp stands. It holds no p_vir, so it lives across passes.
type hostMemo struct {
	ver uint64 // pm.Version() + 1; 0 = never computed
	rel uint64 // math.Float64bits(pm.Reliability)
	p   float64
}

// hostedProb is frame.hostProb with the memo kept per PM for the run
// (proveEmpty allocates it). The frame keeps its own per-pass derivation,
// which is what SelfAudit holds this one to (checkProof).
func (ctx *Context) hostedProb(pm *cluster.PM) float64 {
	m := &ctx.hostMemo[pm.ID]
	if ver, rel := pm.Version()+1, math.Float64bits(pm.Reliability); m.ver != ver || m.rel != rel {
		*m = hostMemo{ver, rel, pm.Reliability * effProbability(ctx.classInfoFor(pm), pm.Utilization())}
	}
	return m.p
}

// shapeTop is a shape's two largest products rel * eff over its non-empty
// score groups, scanned once per pass: v1 >= v2 are the top two group by
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

// gainBound is tier 1 for the column of vm, whose shape id is sid: cur, the
// hosted-cell probability of its host, and an upper bound on its normalized
// gain. It declines, with a cur that is not positive, when the host is not
// an active PM of the fleet or its hosted-cell probability is zero (the +Inf
// rescue rule): the pass must build, so frame.init's errors and the rescue
// still surface.
func (x *candIndex) gainBound(vm *cluster.VM, sid int32) (sh *candShape, cur, bound float64) {
	sh = x.shape(sid)
	h := vm.Host
	if h < 0 || int(h) >= len(x.pms) || !x.pms[h].Active() {
		return sh, 0, 0
	}
	if cur = x.ctx.hostedProb(x.pms[h]); !(cur > 0) {
		return sh, cur, 0
	}
	t := sh.topFor(x.ctx.pass)
	v := t.v1
	if t.sole == int32(h) {
		v = t.v2
	}
	return sh, cur, v / cur
}

// gainExceeds is tier 2: whether any score group offers a column hosted on
// PM host, with remaining estimate tre and normalizer cur, a gain above
// threshold — scanColumn's candidates and arithmetic, runRounds' comparison.
func (sh *candShape) gainExceeds(ctx *Context, host int32, tre, cur, threshold float64) bool {
	for gi := range sh.groups {
		g := &sh.groups[gi]
		if g.candidate(host) < 0 {
			continue
		}
		if p := g.value(virProbability(tre, ctx.classTab[g.key.ci].overhead)); p/cur > threshold {
			return true
		}
	}
	return false
}

// proof is what the emptiness proof concluded about one pass.
type proof int

const (
	proofMoves    proof = iota // tier 2 found a column whose gain exceeds the threshold
	proofEmpty                 // no column's gain does: Algorithm 1 would stop before its first move
	proofDeclined              // undecided: the engine must be built and asked
)

// proveEmpty decides whether any column of the pass has a normalized gain
// above threshold. The decision is exact, not conservative: proofMoves
// means the built engine's Best will exceed the threshold, proofEmpty that
// it will not. It declines on a column tier 1 declines and on adjacent IDs
// out of order. Columns are walked from the back, the order frame.init
// first meets their shapes in, so the index tracks new shapes in the order
// it always has, and the first column that settles the matter ends the walk.
func (ctx *Context) proveEmpty(vms []*cluster.VM, shapes []int32, threshold float64, workers int) proof {
	x := ctx.candidatesWith(workers)
	if ctx.hostMemo == nil {
		ctx.hostMemo = make([]hostMemo, len(x.pms))
	}
	ctx.pass++
	verdict, scans := proofEmpty, int64(0)
	for c := len(vms) - 1; c >= 0 && verdict == proofEmpty; c-- {
		vm := vms[c]
		sh, cur, bound := x.gainBound(vm, shapes[c])
		if !(cur > 0) || (c > 0 && vms[c-1].ID >= vm.ID) {
			verdict = proofDeclined
		} else if bound > threshold {
			scans++
			if sh.gainExceeds(ctx, int32(vm.Host), vm.RemainingEstimate(ctx.Now), cur, threshold) {
				verdict = proofMoves
			}
		}
	}
	if scans > 0 {
		ctx.Obs.Add("core.bound_exact_scans", scans)
	}
	switch verdict {
	case proofEmpty:
		ctx.Obs.Add("core.passes_proven_empty", 1)
	case proofDeclined:
		ctx.Obs.Add("core.bound_declined", 1)
	}
	return verdict
}

// CheckProof runs the emptiness proof over the engine's columns, on the
// Context it was built on, and holds it to the engine's trackers
// (checkProof). It is the differential surface of bound.go: the auditor's
// SparseCheck calls it on its cold sparse build, the fuzz harnesses on a
// dense Matrix after every operation. The engine must be freshly built —
// the proof reads the live fleet — over a Canonical factor list.
func (f *frame) CheckProof(threshold float64) error {
	if !Canonical(f.factors) {
		return fmt.Errorf("core: the emptiness proof covers the canonical default factors only")
	}
	return f.checkProof(f.ctx.proveEmpty(f.vms, f.colShape, threshold, f.opts.Workers), threshold)
}

// checkProof holds a pass's proof to the cold engine built on f (SelfAudit
// builds it for every pass): the run's hosted-cell memo equals the engine's
// own normalizer, no tier-1 bound lies below the built gain, and the verdict
// is the engine's — a proven-empty pass has no move to make, and a pass the
// proof says moves has one.
func (f *frame) checkProof(verdict proof, threshold float64) error {
	for c, vm := range f.vms {
		_, cur, bound := f.ctx.cand.gainBound(vm, f.colShape[c])
		switch declined := !(cur > 0); {
		case declined && verdict == proofEmpty:
			return fmt.Errorf("core: pass proven empty over VM %d, whose column the proof declines", vm.ID)
		case declined:
		case cur != f.curProb[c]:
			return fmt.Errorf("core: VM %d hosted-cell memo %g, cold build %g", vm.ID, cur, f.curProb[c])
		case bound < f.bestGain[c]:
			return fmt.Errorf("core: VM %d gain bound %g below its built gain %g", vm.ID, bound, f.bestGain[c])
		}
	}
	_, c, gain, ok := f.Best()
	switch moves := ok && gain > threshold; {
	case verdict == proofEmpty && moves:
		return fmt.Errorf("core: pass proven empty, but VM %d has gain %g above MIG_threshold %g", f.vms[c].ID, gain, threshold)
	case verdict == proofMoves && !moves:
		return fmt.Errorf("core: emptiness proof found a gain above MIG_threshold %g, the built engine's best is %g", threshold, gain)
	}
	return nil
}
