package main

import (
	"runtime"

	"repro/internal/obs"
)

// layerData is everything the per-layer metrics are computed from. A field
// the workload has no source for stays zero and its metrics read 0: every
// workload emits the whole catalogue, so rows compare name by name.
type layerData struct {
	// The traced run: span tree, the timing wrapper's outcome counts, the
	// registries the program itself published (one per run of a sweep).
	spans       spanStats
	timed       *timedPolicy
	observers   []*obs.Observer
	peakPending int
	tracedWall  float64

	churnNS          float64 // sim.Engine alone at this run's scale
	kwRatio, c4Ratio float64

	saveMs, restoreMs, snapKB float64 // the verify run's checkpoint

	genS, toReqS, fleetS float64 // set-up, split by layer
	requests             int

	// The observed workload's sinks, and the same week unobserved.
	traceEvents, decisionRecords uint64
	traceBytes, decisionBytes    int64
	plainWall                    float64

	expRuns, expWorkers int
	serialWall          float64

	// The timed runs: how many, in how many cycles through the inputs;
	// wall_s, and the median wall of input 0, the base of every ratio against
	// a run of input 0 above; the IQR/median of the runs' walls, each as a
	// share of its input's median (0 with one cycle), and of every run's
	// set-up.
	reps, cycles         int
	wallMean, wallInput0 float64
	wallIQR, setupIQR    float64

	// End-to-end statistics that cannot carry a bound in BENCHMARK.json
	// (README, "End-to-end metrics"), reported here under the issue's names.
	peakRSS, queuedPct, migrations, totalEnergyKWh float64
}

// phase sums a registry phase over the run's observers: seconds, calls.
func (ld *layerData) phase(name string) (float64, float64) {
	var ns, calls int64
	for _, o := range ld.observers {
		ns += o.Phase(name).TotalNS()
		calls += o.Phase(name).Calls()
	}
	return float64(ns) / 1e9, float64(calls)
}

func (ld *layerData) counter(name string) float64 {
	var n int64
	for _, o := range ld.observers {
		n += o.Counter(name).Value()
	}
	return float64(n)
}

// perLayer emits the per-layer catalogue, grouped by module. Span-derived
// numbers come from the benchmark's own clock around each call; the
// registry phases and counters are read as the program published them.
func (ld *layerData) perLayer(m *metricSet) {
	st := &ld.spans
	events := float64(st.calls[spanStep])
	m.put("sim.events", "count", events)
	m.put("sim.step_s", "s", st.seconds(spanStep))
	m.put("sim.self_s", "s", st.selfSeconds(spanStep))
	m.put("sim.self_us_per_event", "us", ratio(st.selfSeconds(spanStep)*1e6, events))
	m.put("sim.new_s", "s", st.seconds(spanNew))
	m.put("sim.finish_s", "s", st.seconds(spanFinish))
	m.put("sim.peak_pending", "count", float64(ld.peakPending))
	dispatchS, _ := ld.phase("event_dispatch")
	m.put("sim.event_dispatch_s", "s", dispatchS)
	m.put("sim.boots", "count", ld.counter("sim.boots"))
	m.put("sim.shutdowns", "count", ld.counter("sim.shutdowns"))
	m.put("sim.queued", "count", ld.counter("sim.queued"))

	m.put("engine.churn_ns_per_event", "ns", ld.churnNS)

	var misses, moves, empty float64
	if ld.timed != nil {
		misses, moves, empty = float64(ld.timed.placeMisses), float64(ld.timed.moves), float64(ld.timed.emptyPasses)
	}
	m.put("policy.place_s", "s", st.seconds(spanPlace))
	m.put("policy.place_calls", "count", float64(st.calls[spanPlace]))
	m.put("policy.place_us_p50", "us", st.percentileUS(spanPlace, 0.50))
	m.put("policy.place_us_p99", "us", st.percentileUS(spanPlace, 0.99))
	m.put("policy.place_miss_ratio", "ratio", ratio(misses, float64(st.calls[spanPlace])))
	m.put("policy.consolidate_s", "s", st.seconds(spanConsolidate))
	m.put("policy.consolidate_calls", "count", float64(st.calls[spanConsolidate]))
	m.put("policy.consolidate_us_p50", "us", st.percentileUS(spanConsolidate, 0.50))
	m.put("policy.consolidate_us_p99", "us", st.percentileUS(spanConsolidate, 0.99))
	m.put("policy.consolidate_moves", "count", moves)
	m.put("policy.consolidate_empty_ratio", "ratio", ratio(empty, float64(st.calls[spanConsolidate])))
	m.put("policy.spare_target_s", "s", st.seconds(spanSpareTarget))
	m.put("policy.spare_target_calls", "count", float64(st.calls[spanSpareTarget]))

	buildS, buildCalls := ld.phase("kernel_build")
	roundsS, _ := ld.phase("algo1_rounds")
	arrivalS, arrivalCalls := ld.phase("arrival_place")
	m.put("core.kernel_build_s", "s", buildS)
	m.put("core.kernel_build_calls", "count", buildCalls)
	m.put("core.algo1_rounds_s", "s", roundsS)
	m.put("core.arrival_place_s", "s", arrivalS)
	m.put("core.arrival_place_calls", "count", arrivalCalls)
	m.put("core.consolidate_passes", "count", ld.counter("core.consolidate_passes"))
	m.put("core.sparse_shape_overflow", "count", ld.counter("core.sparse_shape_overflow"))
	m.put("core.kw_wall_ratio", "ratio", ld.kwRatio)

	planS, _ := ld.phase("spare_plan")
	m.put("spare.plan_s", "s", planS)
	m.put("spare.plans", "count", ld.counter("spare.plans"))

	m.put("cell.c4_wall_ratio", "ratio", ld.c4Ratio)

	m.put("snapshot.save_ms", "ms", ld.saveMs)
	m.put("snapshot.restore_ms", "ms", ld.restoreMs)
	m.put("snapshot.kb", "kB", ld.snapKB)

	m.put("workload.generate_s", "s", ld.genS)
	m.put("workload.to_requests_s", "s", ld.toReqS)
	m.put("workload.requests", "count", float64(ld.requests))
	m.put("cluster.fleet_build_s", "s", ld.fleetS)

	records := float64(ld.traceEvents + ld.decisionRecords)
	m.put("obs.trace_events", "count", float64(ld.traceEvents))
	m.put("obs.trace_mb", "MB", float64(ld.traceBytes)/1e6)
	m.put("obs.decision_records", "count", float64(ld.decisionRecords))
	m.put("obs.decision_mb", "MB", float64(ld.decisionBytes)/1e6)
	m.put("obs.overhead_ratio", "ratio", ratio(ld.wallInput0, ld.plainWall))
	m.put("obs.ns_per_record", "ns", ratio((ld.wallInput0-ld.plainWall)*1e9, records))

	m.put("exp.runs", "count", float64(ld.expRuns))
	m.put("exp.workers", "count", float64(ld.expWorkers))
	m.put("exp.runs_per_s", "1/s", ratio(float64(ld.expRuns), ld.wallMean))
	m.put("exp.serial_wall_s", "s", ld.serialWall)
	m.put("exp.worker_efficiency", "ratio", ratio(ld.serialWall, float64(ld.expWorkers)*ld.wallInput0))

	m.put("bench.reps", "count", float64(ld.reps))
	m.put("bench.cycles", "count", float64(ld.cycles))
	m.put("bench.wall_iqr_ratio", "ratio", ld.wallIQR)
	m.put("bench.setup_iqr_ratio", "ratio", ld.setupIQR)
	m.put("bench.trace_overhead_ratio", "ratio", ratio(ld.tracedWall, ld.wallInput0))
	m.put("host.cpus", "count", float64(runtime.NumCPU()))
	m.put("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))

	m.put("peak_rss_mb", "MB", ld.peakRSS)
	m.put("queued_pct", "%", ld.queuedPct)
	m.put("migrations", "count", ld.migrations)
	m.put("total_energy_kwh", "kWh", ld.totalEnergyKWh)

	// On one CPU a parallel-vs-serial ratio only shows the variants
	// agree; label it so nobody reads it as a measurement.
	if runtime.NumCPU() == 1 {
		for _, name := range []string{"exp.worker_efficiency", "core.kw_wall_ratio", "cell.c4_wall_ratio"} {
			mm := m.M[name]
			mm.EquivalenceOnly = true
			m.M[name] = mm
		}
	}
}
