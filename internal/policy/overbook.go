package policy

import (
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

// Name implements Policy.
func (*Overbook) Name() string { return "overbook" }

// bookFactor is the per-VM booking multiplier: the inflated reservation
// discounted by the overbooking ratio. Always >= 1 while Inflation >=
// Ratio.
func (o *Overbook) bookFactor() float64 { return o.Inflation / o.Ratio }

// bookedUtil is the best-fit score on booked load: the bottleneck
// utilization of pm's booked load with demand added, or -1 when that does
// not fit. The load is recomputed from the hosted VMs (nothing to
// checkpoint), each charged demand * bookFactor and summed in ID order,
// a dimension at a time so nothing is allocated.
func (o *Overbook) bookedUtil(pm *cluster.PM, demand vector.V) float64 {
	f := o.bookFactor()
	cap := pm.Class.Capacity
	m := 0.0
	for k := range cap {
		// float64() rounds each charge before the add, as the scaled
		// vector this replaces did: no fused multiply-add.
		booked := 0.0
		pm.EachVM(func(vm *cluster.VM) { booked += float64(vm.Demand[k] * f) })
		booked += float64(demand[k] * f)
		if booked > cap[k]+vector.Epsilon {
			return -1
		}
		if cap[k] > vector.Epsilon && booked/cap[k] > m {
			m = booked / cap[k]
		}
	}
	return m
}

// unbookable is Place's fallback group: a host that fits the demand
// physically but cannot book it, scored by utilAfter (best-fit).
func (o *Overbook) unbookable(pm *cluster.PM, demand vector.V) float64 {
	if o.bookedUtil(pm, demand) >= 0 {
		return -1
	}
	return utilAfter(pm, demand)
}

// Place implements Policy: best-fit on booked utilization among hosts
// whose booked load stays within capacity; if every host is fully
// booked, best-fit among the unbookable ones (serving the request beats
// the booking discipline, counted on "policy.overbook_fallback").
func (o *Overbook) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	best := bestBy(ctx, vm.Demand, highest, o.bookedUtil, o.unbookable)
	if best != nil && o.bookedUtil(best, vm.Demand) < 0 {
		ctx.Obs.Add("policy.overbook_fallback", 1)
	}
	if best != nil && bottleneckWith(best, vm.Demand) > o.Watermark {
		ctx.Obs.Add("policy.overbook_violations", 1)
	}
	return best
}

// Consolidate implements Policy (overbooking is an admission policy;
// it never migrates).
func (*Overbook) Consolidate(*core.Context) ([]core.Move, error) { return nil, nil }

// Alternatives implements Policy: Place's order, each host scored by its
// group's utilization — bookable hosts first, then the unbookable ones.
func (o *Overbook) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return rankBy(ctx, vm.Demand, k, highest, o.bookedUtil, o.unbookable)
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
