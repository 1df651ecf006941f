package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spare"
	"repro/internal/workload"
)

// This file is how the package runs simulations: one recipe that turns a
// variant into a SchemeRun, and one runner that executes index-addressed
// tasks on a bounded set of goroutines. Every study — the comparison, the
// ablations, the replication sweep and what is built on it — is a list of
// variants or (scheme, seed) pairs handed to these two.

// variant is one row of a study: the placer to run and what the row
// changes against Options.
type variant struct {
	placer policy.Policy

	// spare is the row's spare-server controller; nil runs without one.
	spare *spare.Config

	// timed selects the timed pre-copy migration model.
	timed bool
}

// variantOf returns the row for placer as Options describe it: the
// dynamic family gets the default Section IV controller when
// SpareForDynamic is set, static schemes never get one.
func (o Options) variantOf(placer policy.Policy) variant {
	v := variant{placer: placer}
	if _, isDyn := policy.DynamicOf(placer); isDyn && o.SpareForDynamic {
		sc := spare.DefaultConfig()
		v.spare = &sc
	}
	return v
}

// SchemeRun couples a simulation result with its figure-window slice.
type SchemeRun struct {
	*sim.Result

	// WeekEnergyKWh is the energy consumed during the first WeekHours
	// (the quantity Figures 4-5 integrate).
	WeekEnergyKWh float64

	// Obs is this run's private observability sink (nil unless
	// Options.Observe supplied one).
	Obs *obs.Observer
}

// simulate is the recipe: it runs v over reqs on a fresh fleet, under
// opts, and cuts the result to the figure window.
func simulate(v variant, reqs []workload.Request, opts Options) (*SchemeRun, error) {
	fleet := opts.Fleet
	if fleet == nil {
		fleet = cluster.TableIIFleet
	}
	cfg := sim.Config{
		DC:              fleet(),
		Placer:          v.placer,
		Requests:        reqs,
		Spare:           v.spare,
		TimedMigrations: v.timed,
		Failures:        opts.Failures,
	}
	if opts.Observe != nil {
		cfg.Obs = opts.Observe(v.placer.Name(), opts.Seed)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: scheme %s: %w", v.placer.Name(), err)
	}
	run := &SchemeRun{Result: res, Obs: cfg.Obs}
	for i := 0; i < WeekHours && i < res.EnergyKWh.Len(); i++ {
		run.WeekEnergyKWh += res.EnergyKWh.At(i)
	}
	return run, nil
}

// RunScheme simulates one scheme over the given requests on a fresh fleet.
func RunScheme(name string, reqs []workload.Request, opts Options) (*SchemeRun, error) {
	placer, err := policy.ByName(name, opts.Seed)
	if err != nil {
		return nil, err
	}
	return simulate(opts.variantOf(placer), reqs, opts)
}

// runAll is the runner: it calls task(0) .. task(n-1), each exactly once,
// on min(workers, n) goroutines that claim the next index from one shared
// cursor, and returns every task's error joined (nil when all succeeded).
// workers <= 0 selects GOMAXPROCS. Tasks are whole simulations (tens of
// milliseconds to a second), so one contended counter costs nothing, and
// a task that writes its result at its own index makes the output order
// independent of scheduling.
func runAll(n, workers int, task func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runRows runs one study of n rows and returns them in row order. Each
// row owns a private fleet and placer; rows share nothing but the
// immutable request slice.
func runRows(n, workers int, row func(i int) (*SchemeRun, error)) ([]*SchemeRun, error) {
	runs := make([]*SchemeRun, n)
	err := runAll(n, workers, func(i int) (err error) {
		runs[i], err = row(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// runVariants runs every variant over the trace opts name.
func runVariants(vs []variant, opts Options) ([]*SchemeRun, error) {
	reqs := opts.requests()
	return runRows(len(vs), 0, func(i int) (*SchemeRun, error) {
		return simulate(vs[i], reqs, opts)
	})
}
