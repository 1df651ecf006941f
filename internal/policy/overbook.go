package policy

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vector"
)

// Overbook is a ratio-based overbooking policy in the style of Ortigoza
// & López-Pires (arXiv:1601.01881): customers reserve Inflation times
// what their VMs actually use, and the provider sells reservations up
// to Ratio times physical capacity, betting that actual usage stays
// within the hardware. Placement is best-fit on *booked* utilization —
// each VM charges demand * (Inflation / Ratio) against the host, which
// is the reservation discounted by the overbooking ratio. Because
// Inflation >= Ratio that charge is at least the actual demand, so a
// booked-feasible host is always physically feasible too and the
// simulator's hard placement invariant holds.
//
// The bet can still strain individual hosts: whenever a placement
// pushes a host's actual bottleneck utilization past Watermark, the
// policy books a violation on the "policy.overbook_violations" counter
// — the violation accounting the tournament's QoS objective reads.
type Overbook struct {
	// Ratio is the overbooking ratio: total reservations may reach
	// Ratio times physical capacity. Must be >= 1 (1 disables
	// overbooking).
	Ratio float64

	// Inflation is how much customers over-reserve relative to actual
	// usage. Must be >= Ratio so booked charges never understate real
	// demand.
	Inflation float64

	// Watermark is the actual bottleneck utilization above which a
	// placement counts as a violation, in (0, 1].
	Watermark float64
}

// NewOverbook returns the policy with a 1.2x overbooking ratio, 1.5x
// reservation inflation, and a 90% violation watermark.
func NewOverbook() *Overbook {
	return &Overbook{Ratio: 1.2, Inflation: 1.5, Watermark: 0.9}
}

// Validate checks the knobs.
func (o *Overbook) Validate() error {
	if !(o.Ratio >= 1) {
		return fmt.Errorf("policy: overbook ratio must be >= 1, got %g", o.Ratio)
	}
	if !(o.Inflation >= o.Ratio) {
		return fmt.Errorf("policy: overbook inflation %g must be >= ratio %g", o.Inflation, o.Ratio)
	}
	if !(o.Watermark > 0 && o.Watermark <= 1) {
		return fmt.Errorf("policy: overbook watermark must be in (0, 1], got %g", o.Watermark)
	}
	return nil
}

// Name implements Placer.
func (*Overbook) Name() string { return "overbook" }

// bookFactor is the per-VM booking multiplier: the inflated reservation
// discounted by the overbooking ratio. Always >= 1 when the knobs
// validate.
func (o *Overbook) bookFactor() float64 { return o.Inflation / o.Ratio }

// bookedLoad recomputes a host's booked demand from its hosted VMs.
// Stateless by design: nothing to checkpoint, and evictions/departures
// are automatically reflected.
func (o *Overbook) bookedLoad(pm *cluster.PM) vector.V {
	load := vector.Zero(pm.Class.Capacity.Dim())
	f := o.bookFactor()
	for _, vm := range pm.VMs() {
		load.AddInPlace(vm.Demand.Scale(f))
	}
	return load
}

// bookedUtil returns the prospective booked bottleneck utilization of
// pm after accepting vm, or -1 when the booking does not fit.
func (o *Overbook) bookedUtil(pm *cluster.PM, vm *cluster.VM) float64 {
	booked := o.bookedLoad(pm)
	booked.AddInPlace(vm.Demand.Scale(o.bookFactor()))
	cap := pm.Class.Capacity
	for k := range booked {
		if booked[k] > cap[k]+vector.Epsilon {
			return -1
		}
	}
	return bottleneck(booked, cap)
}

// Place implements Placer: best-fit on booked utilization among hosts
// whose booked load stays within capacity; if every host is fully
// booked, any physically feasible host (serving the request beats the
// booking discipline, counted on "policy.overbook_fallback").
func (o *Overbook) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	var best *cluster.PM
	bestU := -1.0
	for _, pm := range ctx.DC.PMs() {
		if !feasible(pm, vm.Demand) {
			continue
		}
		if u := o.bookedUtil(pm, vm); u > bestU {
			bestU, best = u, pm
		}
	}
	if best == nil {
		if best = (BestFit{}).Place(ctx, vm); best != nil {
			ctx.Obs.Add("policy.overbook_fallback", 1)
		}
	}
	if best != nil && bottleneck(best.Used.Add(vm.Demand), best.Class.Capacity) > o.Watermark {
		ctx.Obs.Add("policy.overbook_violations", 1)
	}
	return best
}

// Consolidate implements Placer (overbooking is an admission policy;
// it never migrates).
func (*Overbook) Consolidate(*core.Context) ([]core.Move, error) { return nil, nil }

// Alternatives implements Policy: Place's candidate order — bookable
// hosts by booked utilization descending (ties toward the lower PM ID),
// scored by that utilization.
func (o *Overbook) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	var out []core.Placement
	for _, pm := range ctx.DC.PMs() {
		if !feasible(pm, vm.Demand) {
			continue
		}
		if u := o.bookedUtil(pm, vm); u >= 0 {
			out = append(out, core.Placement{PM: pm, Probability: u})
		}
	}
	sortPlacements(out, true)
	return truncate(out, k)
}

// SpareTarget implements Policy: overbooking extends to the spare pool
// — reservations are assumed inflated, so the policy keeps only
// baseline/Ratio spares warm (rounded up, so a positive baseline never
// drops to zero spares).
func (o *Overbook) SpareTarget(_ *core.Context, baseline int) int {
	if baseline <= 0 || o.Ratio <= 1 {
		return baseline
	}
	return int(math.Ceil(float64(baseline) / o.Ratio))
}
