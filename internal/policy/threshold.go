package policy

import (
	"fmt"
	"sort"

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

func (t *Threshold) postUtil(pm *cluster.PM, demand vector.V) float64 {
	return bottleneck(pm.Used.Add(demand), pm.Class.Capacity)
}

// Place implements Policy: best-fit (highest post-placement bottleneck
// utilization) among hosts that stay at or below Hi; if none qualifies,
// any feasible host (QoS beats the watermark).
func (t *Threshold) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	var best, fallback *cluster.PM
	bestU, fallbackU := -1.0, -1.0
	for _, pm := range ctx.DC.PMs() {
		if !pm.CanHost(vm.Demand) {
			continue
		}
		u := t.postUtil(pm, vm.Demand)
		if u <= t.Hi && u > bestU {
			bestU, best = u, pm
		}
		if u > fallbackU {
			fallbackU, fallback = u, pm
		}
	}
	if best != nil {
		return best
	}
	return fallback
}

// Alternatives implements Policy: feasible hosts in Place's preference
// order — watermark-respecting candidates first (post-placement
// bottleneck utilization descending), then over-watermark fallbacks —
// scored by that utilization.
func (t *Threshold) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	var within, over []core.Placement
	for _, pm := range ctx.DC.PMs() {
		if !pm.CanHost(vm.Demand) {
			continue
		}
		u := t.postUtil(pm, vm.Demand)
		if u <= t.Hi {
			within = append(within, core.Placement{PM: pm, Probability: u})
		} else {
			over = append(over, core.Placement{PM: pm, Probability: u})
		}
	}
	sortPlacements(within, true)
	sortPlacements(over, true)
	return truncate(append(within, over...), k)
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
	var under []*cluster.PM
	for _, pm := range ctx.DC.PMs() {
		if pm.State() != cluster.PMOn || pm.VMCount() == 0 {
			continue
		}
		u := bottleneck(pm.Used, pm.Class.Capacity)
		if u > 0 && u < t.Lo {
			under = append(under, pm)
		}
	}
	sort.SliceStable(under, func(i, j int) bool {
		return bottleneck(under[i].Used, under[i].Class.Capacity) <
			bottleneck(under[j].Used, under[j].Class.Capacity)
	})

	for _, src := range under {
		vms := migratable(src)
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
	for _, src := range ctx.DC.PMs() {
		if budget <= 0 {
			break
		}
		if src.State() != cluster.PMOn {
			continue
		}
		for budget > 0 && bottleneck(src.Used, src.Class.Capacity) > t.Hi {
			vms := migratable(src)
			if len(vms) == 0 {
				break
			}
			// Smallest VM first: cheapest relief.
			sort.SliceStable(vms, func(i, j int) bool {
				return vms[i].Demand.Sum() < vms[j].Demand.Sum()
			})
			vm := vms[0]
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
// moves (planned[i] will receive siblings[i]).
func (t *Threshold) target(ctx *core.Context, src *cluster.PM, vm *cluster.VM, planned []*cluster.PM, siblings []*cluster.VM) *cluster.PM {
	var best *cluster.PM
	bestU := -1.0
	for _, pm := range ctx.DC.PMs() {
		if pm == src || pm.State() != cluster.PMOn {
			continue
		}
		extra := vm.Demand.Clone()
		for i, p := range planned {
			if p == pm {
				extra.AddInPlace(siblings[i].Demand)
			}
		}
		if !extra.Fits(pm.Used, pm.Class.Capacity) {
			continue
		}
		if u := bottleneck(pm.Used.Add(extra), pm.Class.Capacity); u <= t.Hi && u > bestU {
			bestU, best = u, pm
		}
	}
	return best
}

// migratable lists a PM's running VMs, sorted by ID.
func migratable(pm *cluster.PM) []*cluster.VM {
	var out []*cluster.VM
	for _, vm := range pm.VMs() {
		if vm.State == cluster.VMRunning {
			out = append(out, vm)
		}
	}
	return out
}
