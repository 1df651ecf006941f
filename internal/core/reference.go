package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
)

// This file is the one cold reference the lazy rounds are held to
// (bound.go's checkRound): Eq. 1 over the Running VMs, read the way
// Algorithm 1 reads it, one column at a time through Joint. It stores no
// M x N matrix and keeps nothing across builds, and it evaluates any factor
// list, opaque factors included. No run builds it: SelfAudit builds one per
// lazy round (auditRound), the auditor's SparseCheck one per control period
// (CheckProof), and the package's tests run Algorithm 1 on it
// (denseConsolidate).

// refColumn is one column of the reference: a Running VM, its normalizer
// cur — the joint probability of its current placement — and its best
// non-host alternative: the PM, its raw probability p and the normalized
// gain d = p / cur Algorithm 1 compares against MIG_threshold.
type refColumn struct {
	vm   *cluster.VM
	cur  float64
	best cluster.PMID // NoPM when no alternative has positive probability
	p    float64
	gain float64
}

// reference is the cold reference over MigratableVMs: one column per
// Running VM, in ID order.
type reference []refColumn

// newReference evaluates the reference on ctx's fleet. A column's
// normalizer is Joint on the VM's host, hosted; Joint then runs on every
// other active PM in ID order, and the column keeps the lowest-ID PM of the
// largest raw probability. For a positive normalizer that is the PM of the
// largest gain — IEEE rounding is monotone, so max fl(p/cur) = fl(max p/cur)
// — and one division (normGain) recovers the gain. A normalizer of 0 or
// less (an expired estimate on an unreliable host) makes any positive
// alternative a +Inf-gain rescue: the column keeps the lowest-ID one.
func newReference(ctx *Context, factors []Factor) (reference, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("core: the reference needs at least one factor")
	}
	if ctx == nil || ctx.DC == nil {
		return nil, fmt.Errorf("core: the reference needs a context with a datacenter")
	}
	vms, pms := MigratableVMs(ctx.DC), ctx.DC.ActivePMs()
	ref := make(reference, len(vms))
	for c, vm := range vms {
		host := ctx.DC.PM(vm.Host)
		if host == nil || !host.Active() {
			return nil, fmt.Errorf("core: VM %d hosted on inactive PM %d", vm.ID, vm.Host)
		}
		col := refColumn{vm: vm, cur: Joint(ctx, factors, vm, host, true), best: cluster.NoPM}
		for _, pm := range pms {
			if pm == host {
				continue
			}
			if p := Joint(ctx, factors, vm, pm, false); p > col.p {
				col.best, col.p = pm.ID, p
				if !(col.cur > 0) {
					break
				}
			}
		}
		col.gain = normGain(int(col.best), col.p, col.cur)
		ref[c] = col
	}
	return ref, nil
}

// normGain derives the normalized gain of a best alternative (row, p)
// against the normalizer cur: 0 with no alternative (row < 0), +Inf for a
// rescue.
func normGain(row int, p, cur float64) float64 {
	switch {
	case row < 0:
		return 0
	case cur > 0:
		return p / cur
	default:
		return math.Inf(1)
	}
}

// Best returns the column Algorithm 1 moves: the largest gain, the lowest
// VM ID among equal gains — the columns ascend by ID and the strict
// comparison keeps the first — or -1 when no column has a positive gain.
func (ref reference) Best() int {
	c, gain := -1, 0.0
	for i := range ref {
		if ref[i].gain > gain {
			c, gain = i, ref[i].gain
		}
	}
	return c
}
