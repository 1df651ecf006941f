package exp

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file implements the replication sweep: R seeds x S schemes, one
// task per pair on the package's runner (runAll), merged
// deterministically. Policy comparisons only mean something across many
// replications (one seed is one sample), and the runs are embarrassingly
// parallel — each owns a private fleet, placer, and RNG stream — so the
// sweep saturates the machine while guaranteeing the merged report is
// byte-identical no matter how many workers ran it or in what order they
// finished.
//
// Memory. A completed run is reduced to a compact SweepRun immediately,
// on the worker, before the next task starts — the full sim.Result (the
// hourly series, the event machinery) becomes garbage right away, so live
// heavy state is bounded by the worker count, not the sweep size. Traces
// are generated once per seed (lazily, by whichever worker first needs
// one) and shared read-only across the schemes replaying that seed.
//
// Determinism. The task list is the cross product indexed scheme-major
// (task = si*len(seeds)+vi) and a task writes only at its own index, so
// the result slice is in (scheme, seed) order by construction — no sort,
// no completion-order dependence — and each run is the deterministic
// function of its (scheme, seed) alone. The report records nothing about
// the execution (no worker count, no timing), so its JSON encoding is
// byte-identical across worker counts; TestSweepDeterministicAcrossWorkers
// pins exactly that.

// SweepOptions configures a replication sweep.
type SweepOptions struct {
	// Base supplies the per-run configuration template: fleet, failures,
	// spare policy, and (via TraceGen) the workload family. Base.Seed
	// and Base.Schemes are ignored — the sweep's own fields drive those. When Base.Trace is set, every run replays that
	// fixed trace and seeds vary only the schemes' internal randomness.
	Base Options

	// Schemes lists the placement schemes to replicate; default is the
	// paper's trio.
	Schemes []string

	// Seeds lists the replication seeds. Each (scheme, seed) pair is one
	// run; the seed drives both workload generation and the scheme's
	// internal randomness.
	Seeds []int64

	// Workers bounds the concurrent runs; <= 0 selects GOMAXPROCS. The
	// merged report is identical for every worker count.
	Workers int

	// Observe, when set, is called once per run (before it starts) with
	// the run's scheme and seed, returning that run's private
	// observability sink or nil to leave the run uninstrumented.
	// Replications of the same scheme run concurrently, so a sink must
	// not be shared across seeds: a shared one would pool their
	// counters.
	Observe func(scheme string, seed int64) *obs.Observer
}

// SweepRun is one replication's reduced result — the per-run scalars the
// aggregates are computed from, small enough to keep R*S of them around.
type SweepRun struct {
	Scheme string
	Seed   int64

	WeekEnergyKWh   float64
	TotalEnergyKWh  float64
	MeanActivePMs   float64
	PeakActivePMs   float64
	Migrations      int
	Boots           int
	VMsCompleted    int
	QueuedFraction  float64
	MeanWaitSeconds float64
}

// Moments summarizes one metric across a scheme's replications.
type Moments struct {
	Mean, StdDev, Min, Max float64
}

// SweepAggregate is the cross-replication summary for one scheme.
type SweepAggregate struct {
	Scheme string
	Runs   int

	WeekEnergyKWh   Moments
	MeanActivePMs   Moments
	Migrations      Moments
	QueuedFraction  Moments
	MeanWaitSeconds Moments
}

// SweepReport is the deterministic merge of a sweep: every run in
// (scheme, seed) order plus per-scheme aggregates. It deliberately
// records nothing about how the sweep executed (worker count, timing), so
// its JSON encoding is byte-identical across worker counts.
type SweepReport struct {
	Schemes    []string
	Seeds      []int64
	Runs       []SweepRun
	Aggregates []SweepAggregate
}

// traceCell lazily materializes one seed's workload, once, no matter
// which worker asks first.
type traceCell struct {
	once sync.Once
	reqs []workload.Request
}

// RunSweep executes the full (scheme, seed) cross product and returns the
// deterministic merged report. On failure it returns a joined error
// naming every failed (scheme, seed) pair — completed runs are not
// discarded silently, and one bad pair does not mask the others.
func RunSweep(opts SweepOptions) (*SweepReport, error) {
	if len(opts.Schemes) == 0 {
		opts.Schemes = DefaultOptions(0).Schemes
	}
	if len(opts.Seeds) == 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one seed")
	}
	nSeeds := len(opts.Seeds)
	traces := make([]traceCell, nSeeds)
	runs := make([]SweepRun, len(opts.Schemes)*nSeeds)
	err := runAll(len(runs), opts.Workers, func(t int) error {
		si, vi := t/nSeeds, t%nSeeds
		scheme, seed := opts.Schemes[si], opts.Seeds[vi]
		ro := opts.Base
		ro.Seed = seed
		ro.observe = opts.Observe
		trace := &traces[vi]
		trace.once.Do(func() { trace.reqs = ro.requests() })
		run, err := RunScheme(scheme, trace.reqs, ro)
		if err != nil {
			return fmt.Errorf("exp: sweep (scheme %s, seed %d): %w", scheme, seed, err)
		}
		// Reduce on the worker: the full Result becomes garbage before
		// the next task starts, bounding live state to the worker count.
		s := run.Summary
		runs[t] = SweepRun{
			Scheme:          scheme,
			Seed:            seed,
			WeekEnergyKWh:   run.WeekEnergyKWh,
			TotalEnergyKWh:  s.TotalEnergyKWh,
			MeanActivePMs:   s.MeanActivePMs,
			PeakActivePMs:   s.PeakActivePMs,
			Migrations:      s.Migrations,
			Boots:           s.Boots,
			VMsCompleted:    s.VMsCompleted,
			QueuedFraction:  s.QueuedFraction,
			MeanWaitSeconds: s.MeanWaitSeconds,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	report := &SweepReport{
		Schemes: append([]string(nil), opts.Schemes...),
		Seeds:   append([]int64(nil), opts.Seeds...),
		Runs:    runs,
	}
	for si, scheme := range opts.Schemes {
		block := runs[si*nSeeds : (si+1)*nSeeds]
		report.Aggregates = append(report.Aggregates, aggregate(scheme, block))
	}
	return report, nil
}

// aggregate folds one scheme's replications into cross-seed moments. The
// fold order is the fixed seed order, so the float sums — and therefore
// the report bytes — do not depend on completion order.
func aggregate(scheme string, block []SweepRun) SweepAggregate {
	n := len(block)
	week := make([]float64, n)
	active := make([]float64, n)
	migs := make([]float64, n)
	queued := make([]float64, n)
	wait := make([]float64, n)
	for i, r := range block {
		week[i] = r.WeekEnergyKWh
		active[i] = r.MeanActivePMs
		migs[i] = float64(r.Migrations)
		queued[i] = r.QueuedFraction
		wait[i] = r.MeanWaitSeconds
	}
	return SweepAggregate{
		Scheme:          scheme,
		Runs:            n,
		WeekEnergyKWh:   moments(week),
		MeanActivePMs:   moments(active),
		Migrations:      moments(migs),
		QueuedFraction:  moments(queued),
		MeanWaitSeconds: moments(wait),
	}
}

func moments(xs []float64) Moments {
	m := Moments{Mean: stats.Mean(xs), StdDev: stats.StdDev(xs)}
	if len(xs) == 0 {
		return m
	}
	m.Min, m.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < m.Min {
			m.Min = x
		}
		if x > m.Max {
			m.Max = x
		}
	}
	return m
}
