package exp

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// QoSAnalysis cross-checks a run's observed queueing against the Erlang-C
// capacity model. Treating the fleet's cores as an M/M/c pool with the
// trace's empirical arrival rate and mean service time, Erlang C predicts
// the waiting probability *capacity alone* would cause. The gap between
// that and the simulator's observed queueing is boot latency — exactly the
// component the paper's spare-server controller targets.
type QoSAnalysis struct {
	// OfferedErlangs is λ * E[S] over the trace, in core-seconds per
	// second.
	OfferedErlangs float64

	// FleetCores is c: the total core count of the fleet.
	FleetCores int

	// ErlangCWaitProb is the analytic capacity-driven waiting
	// probability with every core live.
	ErlangCWaitProb float64

	// CoresForTarget is the minimal always-on core pool that meets the
	// paper's 5% bound analytically.
	CoresForTarget int

	// ObservedQueued is the simulator's measured queueing fraction.
	ObservedQueued float64
}

// AnalyzeQoS builds the cross-check for one scheme run over its trace.
func AnalyzeQoS(run *SchemeRun, reqs []workload.Request, fleet func() *cluster.Datacenter) QoSAnalysis {
	if fleet == nil {
		fleet = cluster.TableIIFleet
	}
	dc := fleet()
	cores := 0
	for _, pm := range dc.PMs() {
		cores += int(pm.Class.Capacity[cluster.ResCPU])
	}

	var span, busy float64
	for _, q := range reqs {
		busy += q.RunTime * q.CPUCores
		if end := q.Submit + q.RunTime; end > span {
			span = end
		}
	}
	a := 0.0
	if span > 0 {
		a = busy / span
	}
	an := QoSAnalysis{
		OfferedErlangs:  a,
		FleetCores:      cores,
		ErlangCWaitProb: ErlangC(cores, a),
		ObservedQueued:  run.Summary.QueuedFraction,
	}
	if a > 0 {
		an.CoresForTarget = ServersForWaitProbability(a, 0.05)
	}
	return an
}

// String renders the analysis for the experiment report.
func (q QoSAnalysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered load: %.1f Erlangs against %d cores (%.0f%% average utilization)\n",
		q.OfferedErlangs, q.FleetCores, q.OfferedErlangs/float64(q.FleetCores)*100)
	fmt.Fprintf(&b, "Erlang-C capacity-driven wait probability (all cores live): %.4f%%\n",
		q.ErlangCWaitProb*100)
	fmt.Fprintf(&b, "minimal always-on cores for the 5%% bound: %d\n", q.CoresForTarget)
	fmt.Fprintf(&b, "observed queueing in simulation: %.2f%%\n", q.ObservedQueued*100)
	fmt.Fprintf(&b, "=> observed waiting is boot latency, not capacity: the analytic floor is ~0,\n")
	fmt.Fprintf(&b, "   so every queued request reflects a machine that had to be powered on first —\n")
	fmt.Fprintf(&b, "   the component Section IV's spare pool exists to absorb.\n")
	return b.String()
}
