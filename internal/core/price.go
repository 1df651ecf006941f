package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
)

// PriceFactor is the electricity-price extension the paper sketches as
// future work ("the dynamic behavior of electricity price will be
// formulated as an important factor in the dynamic VM migration process").
// It demonstrates the advertised extensibility of the joint probability:
// appending this factor to DefaultFactors makes the scheme prefer — and
// migrate toward — machines in cheaper-electricity regions, with no other
// code changes.
//
// Each PM belongs to a region with a (possibly time-varying) $/kWh price.
// The factor is the normalized inverse price, mirroring how eff_j
// normalizes per-VM power:
//
//	p_ij^price = min_region(price(now)) / price_region(j)(now)
//
// so the cheapest region scores 1 and pricier regions proportionally less.
type PriceFactor struct {
	// RegionOf maps a PM to its region name. PMs not in the map belong
	// to DefaultRegion.
	RegionOf map[cluster.PMID]string

	// DefaultRegion names the region of unmapped PMs.
	DefaultRegion string

	// Price returns a region's electricity price at a simulation time,
	// in any consistent unit (only ratios matter). Prices must be
	// positive.
	Price func(region string, now float64) float64

	// Regions lists every region so the factor can normalize by the
	// cheapest current price.
	Regions []string
}

// NewPriceFactor builds the factor; it panics on an incomplete
// specification (prices are experiment configuration, not runtime input).
func NewPriceFactor(regions []string, defaultRegion string, price func(string, float64) float64) *PriceFactor {
	if len(regions) == 0 || price == nil {
		panic("core: price factor needs regions and a price function")
	}
	found := false
	for _, r := range regions {
		if r == defaultRegion {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("core: default region %q not in region list", defaultRegion))
	}
	return &PriceFactor{
		RegionOf:      make(map[cluster.PMID]string),
		DefaultRegion: defaultRegion,
		Price:         price,
		Regions:       regions,
	}
}

// Assign places a PM in a region.
func (f *PriceFactor) Assign(pm cluster.PMID, region string) { f.RegionOf[pm] = region }

// Region returns the region a PM belongs to.
func (f *PriceFactor) Region(pm cluster.PMID) string {
	if r, ok := f.RegionOf[pm]; ok {
		return r
	}
	return f.DefaultRegion
}

// Name implements Factor.
func (*PriceFactor) Name() string { return "price" }

// Probability implements Factor.
func (f *PriceFactor) Probability(ctx *Context, _ *cluster.VM, pm *cluster.PM, _ bool) float64 {
	p := f.Price(f.Region(pm.ID), ctx.Now)
	if p <= 0 || math.IsNaN(p) {
		return 0
	}
	cheapest := math.Inf(1)
	for _, r := range f.Regions {
		if rp := f.Price(r, ctx.Now); rp > 0 && rp < cheapest {
			cheapest = rp
		}
	}
	if math.IsInf(cheapest, 1) {
		return 0
	}
	return cheapest / p
}

// FlatPrices is a convenience Price function over a static map.
func FlatPrices(perRegion map[string]float64) func(string, float64) float64 {
	return func(region string, _ float64) float64 { return perRegion[region] }
}
