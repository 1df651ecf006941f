// Failure study: PMs fail under an exponential clock, their VMs are
// re-placed as fresh requests (Section III.C), and each failure decays the
// machine's reliability probability so the p_rel factor steers future
// placements away from flaky hardware (Section III.B.3).
//
//	go run ./examples/failure
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/failure"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	gen := workload.DefaultWeekConfig(3)
	gen.DailyJobs = []int{200, 200, 200}
	jobs := workload.Filter(workload.MustGenerate(gen), workload.DefaultFilter())
	requests := workload.ToRequests(jobs)

	dc := cluster.TableIIFleetScaled(20)
	res, err := sim.Run(sim.Config{
		DC:       dc,
		Placer:   policy.NewDynamic(),
		Requests: requests,
		Failures: failure.Config{
			MTBF:             36 * 3600, // each powered-on PM fails ~1.5x/day on average
			RepairTime:       1800,
			ReliabilityDecay: 0.85,
			MinReliability:   0.3,
			Seed:             5,
		},
		Audit: audit.Event,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %d requests over 3 days; fleet: 20 nodes; failures injected: %d\n\n",
		len(requests), res.Failures)
	fmt.Printf("all %d VMs completed despite failures (rejected: %d)\n",
		res.Summary.VMsCompleted, res.Summary.Rejected)
	fmt.Printf("migrations: %d, boots: %d, queued: %.2f%%\n\n",
		res.Summary.Migrations, res.Summary.Boots, res.Summary.QueuedFraction*100)

	fmt.Println("per-PM failure history and resulting reliability (failed PMs only):")
	pms := dc.PMs()
	sort.SliceStable(pms, func(i, j int) bool { return pms[i].Failures > pms[j].Failures })
	for _, pm := range pms {
		if pm.Failures == 0 {
			continue
		}
		fmt.Printf("  PM%-3d (%s): %d failures -> p_rel %.3f (started at %.2f)\n",
			pm.ID, pm.Class.Name, pm.Failures, pm.Reliability(), pm.Class.Reliability)
	}
	fmt.Println("\nthe decayed p_rel lowers every joint probability on those machines, so the")
	fmt.Println("dynamic scheme places and consolidates onto the reliable part of the fleet first.")
}
