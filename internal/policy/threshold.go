package policy

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vector"
)

// Threshold is a watermark-based dynamic consolidation baseline in the
// style the paper attributes to Goiri et al. [21] and contrasts itself
// against: instead of a per-(VM, PM) probability matrix, two workload-
// intensity thresholds drive decisions. A PM is overloaded when its
// bottleneck utilization exceeds Hi and underloaded below Lo; placements
// avoid pushing hosts past Hi, and consolidation evacuates underloaded
// hosts whose VMs all fit elsewhere, then relieves overloaded hosts.
//
// Utilization here is the bottleneck (max per-resource) fraction — the
// conventional watermark metric — unlike the scheme's product utilization.
type Threshold struct {
	// Lo and Hi are the under/overload watermarks in (0, 1], Lo < Hi.
	Lo, Hi float64

	// MaxMoves caps migrations per consolidation pass.
	MaxMoves int

	// extra and vms are target's and migratable's scratch.
	extra vector.V
	vms   []*cluster.VM
}

// NewThreshold returns the baseline with conventional watermarks
// (25% / 90%) and the same per-pass migration budget as the dynamic
// scheme's default.
func NewThreshold() *Threshold {
	return &Threshold{Lo: 0.25, Hi: 0.90, MaxMoves: core.DefaultParams().MIGRound}
}

// Validate checks the watermarks.
func (t *Threshold) Validate() error {
	if !(t.Lo > 0 && t.Lo < t.Hi && t.Hi <= 1) {
		return fmt.Errorf("policy: thresholds need 0 < Lo < Hi <= 1, got %g/%g", t.Lo, t.Hi)
	}
	if t.MaxMoves <= 0 {
		return fmt.Errorf("policy: threshold MaxMoves must be positive")
	}
	return nil
}

// Name implements Policy.
func (*Threshold) Name() string { return "threshold" }

// bottleneck returns the max per-resource utilization of used within cap.
func bottleneck(used, cap vector.V) float64 {
	m := 0.0
	for k := range used {
		if cap[k] <= vector.Epsilon {
			continue
		}
		if f := used[k] / cap[k]; f > m {
			m = f
		}
	}
	return m
}

// bottleneckWith is bottleneck(pm.Used.Add(demand), capacity) without
// allocating the sum.
func bottleneckWith(pm *cluster.PM, demand vector.V) float64 {
	m := 0.0
	cap := pm.Class.Capacity
	for k := range cap {
		if cap[k] <= vector.Epsilon {
			continue
		}
		if f := (pm.Used[k] + demand[k]) / cap[k]; f > m {
			m = f
		}
	}
	return m
}

// withinHi and overHi are Place's two groups of candidates, split at the
// watermark and scored by bottleneck utilization after placement.
func (t *Threshold) withinHi(pm *cluster.PM, demand vector.V) float64 {
	if u := bottleneckWith(pm, demand); u <= t.Hi {
		return u
	}
	return -1
}

func (t *Threshold) overHi(pm *cluster.PM, demand vector.V) float64 {
	if u := bottleneckWith(pm, demand); u > t.Hi {
		return u
	}
	return -1
}

// Place implements Policy: best-fit (highest post-placement bottleneck
// utilization) among hosts that stay at or below Hi; if none qualifies,
// the best-fit host over Hi (QoS beats the watermark).
func (t *Threshold) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	return bestBy(ctx, vm.Demand, highest, t.withinHi, t.overHi)
}

// Alternatives implements Policy: feasible hosts in Place's preference
// order — watermark-respecting candidates first (post-placement
// bottleneck utilization descending), then over-watermark fallbacks —
// scored by that utilization.
func (t *Threshold) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return rankBy(ctx, vm.Demand, k, highest, t.withinHi, t.overHi)
}

// SpareTarget implements Policy (baseline passthrough).
func (*Threshold) SpareTarget(_ *core.Context, baseline int) int { return baseline }

// Consolidate implements Policy: first evacuate fully-drainable
// underloaded hosts, then relieve overloaded hosts, within the MaxMoves
// budget.
func (t *Threshold) Consolidate(ctx *core.Context) ([]core.Move, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var moves []core.Move
	budget := t.MaxMoves

	moves, budget = t.evacuateUnderloaded(ctx, moves, budget)
	moves, _ = t.relieveOverloaded(ctx, moves, budget)
	return moves, nil
}

// evacuateUnderloaded empties hosts below Lo when every VM fits elsewhere
// without pushing any target past Hi. Candidates drain least-loaded first
// (cheapest wins first).
func (t *Threshold) evacuateUnderloaded(ctx *core.Context, moves []core.Move, budget int) ([]core.Move, int) {
	// Its own walk, not rankBy's: it rates the hosts VMs would leave.
	type source struct {
		pm *cluster.PM
		u  float64
	}
	var under []source
	for _, pm := range ctx.DC.PMs() {
		if pm.State() != cluster.PMOn || pm.VMCount() == 0 {
			continue
		}
		u := bottleneck(pm.Used, pm.Class.Capacity)
		if u > 0 && u < t.Lo {
			under = append(under, source{pm, u})
		}
	}
	slices.SortStableFunc(under, func(a, b source) int { return cmp.Compare(a.u, b.u) })

	for _, s := range under {
		src := s.pm
		vms := t.migratable(src)
		if len(vms) == 0 || len(vms) > budget {
			continue
		}
		// Plan all moves before committing: evacuation is all-or-nothing.
		plan := make([]*cluster.PM, 0, len(vms))
		ok := true
		for _, vm := range vms {
			dst := t.target(ctx, src, vm, plan, vms)
			if dst == nil {
				ok = false
				break
			}
			plan = append(plan, dst)
		}
		if !ok {
			continue
		}
		for i, vm := range vms {
			if err := core.Migrate(vm, src, plan[i]); err != nil {
				return moves, budget // accounting intact; stop the pass
			}
			moves = append(moves, core.Move{
				VM: vm.ID, From: src.ID, To: plan[i].ID,
				Gain: 0, Round: len(moves) + 1,
			})
			budget--
		}
		if budget <= 0 {
			break
		}
	}
	return moves, budget
}

// relieveOverloaded moves the smallest VMs off hosts above Hi until they
// drop back under the watermark.
func (t *Threshold) relieveOverloaded(ctx *core.Context, moves []core.Move, budget int) ([]core.Move, int) {
	// Its own walk, not bestBy's: it visits the sources, in ID order.
	for _, src := range ctx.DC.PMs() {
		if budget <= 0 {
			break
		}
		if src.State() != cluster.PMOn {
			continue
		}
		for budget > 0 && bottleneck(src.Used, src.Class.Capacity) > t.Hi {
			vms := t.migratable(src)
			if len(vms) == 0 {
				break
			}
			// Smallest VM first (the first in ID order on ties): cheapest relief.
			vm := slices.MinFunc(vms, func(a, b *cluster.VM) int { return cmp.Compare(a.Demand.Sum(), b.Demand.Sum()) })
			dst := t.target(ctx, src, vm, nil, nil)
			if dst == nil {
				break
			}
			if err := core.Migrate(vm, src, dst); err != nil {
				break
			}
			moves = append(moves, core.Move{
				VM: vm.ID, From: src.ID, To: dst.ID,
				Gain: 0, Round: len(moves) + 1,
			})
			budget--
		}
	}
	return moves, budget
}

// target picks the most-loaded destination that stays at or below Hi after
// receiving vm, excluding src, accounting for already-planned sibling
// moves (planned[i] will receive siblings[i]), summed in t.extra. Its own
// walk, not bestBy's: it reads only PMs that are on (CanHost takes booting
// ones too), skips src and counts the siblings planned onto each PM.
func (t *Threshold) target(ctx *core.Context, src *cluster.PM, vm *cluster.VM, planned []*cluster.PM, siblings []*cluster.VM) *cluster.PM {
	var best *cluster.PM
	bestU := -1.0
	for _, pm := range ctx.DC.PMs() {
		if pm == src || pm.State() != cluster.PMOn {
			continue
		}
		t.extra = append(t.extra[:0], vm.Demand...)
		for i, p := range planned {
			if p == pm {
				t.extra.AddInPlace(siblings[i].Demand)
			}
		}
		if !t.extra.Fits(pm.Used, pm.Class.Capacity) {
			continue
		}
		if u := bottleneckWith(pm, t.extra); u <= t.Hi && u > bestU {
			bestU, best = u, pm
		}
	}
	return best
}

// migratable lists a PM's running VMs, sorted by ID, in t.vms: the list
// holds until the next call.
func (t *Threshold) migratable(pm *cluster.PM) []*cluster.VM {
	t.vms = t.vms[:0]
	pm.EachVM(func(vm *cluster.VM) {
		if vm.State == cluster.VMRunning {
			t.vms = append(t.vms, vm)
		}
	})
	return t.vms
}
