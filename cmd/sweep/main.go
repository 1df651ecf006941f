// Command sweep runs a replication sweep: the full scheme x seed cross
// product, each (scheme, seed) pair one independent simulation, run on a
// bounded set of workers (exp.RunSweep) and merged into a deterministic
// report. One seed is one sample — policy comparisons only mean something
// across replications, and this command is the batch tool that produces
// them: per-scheme mean/stddev/min/max of the week energy, active-server,
// migration, and queueing metrics, then, with dynamic in the roster, on
// how many seeds dynamic used less week energy than each other scheme.
// `sweep -reps 5` is the E-R1 robustness study of EXPERIMENTS.md.
//
// Usage:
//
//	sweep [-schemes first-fit,best-fit,dynamic] [-reps 8 | -seeds 1,4,9]
//	      [-workers N] [-nodes 100] [-jobs 0] [-spare] [-tournament]
//	      [-o report.json] [-cpuprofile cpu.out] [-memprofile mem.out] [-v]
//
// Each seed generates its own synthetic week (the Figure 2 calibration,
// loaded by exp.Workload as dvmpsim loads it), shared read-only by every
// scheme replaying it; -jobs truncates each week to its first N jobs for
// quick sweeps. -workers bounds the concurrent runs (default GOMAXPROCS;
// must be positive); the merged report — and therefore the -o JSON — is
// byte-identical for every worker count, so a sweep's output can be
// compared across machines regardless of their core counts.
//
// -tournament scores the same sweep as a policy tournament instead of
// printing raw aggregates: each policy is ranked per objective (mean week
// energy, mean queued fraction, mean migrations) and the ranks combine by
// Borda count, lower total winning (see README "Policy lab"). Without
// -schemes the tournament fields the five-policy lab roster (first-fit,
// best-fit, dynamic, overbook, dynamic-adaptive); -o writes the full
// standings plus the underlying sweep as JSON. Scheme names are validated
// up front, and a repeated -schemes or -seeds entry is rejected.
//
// The -cpuprofile and -memprofile flags capture runtime/pprof profiles of
// the whole sweep for `go tool pprof`, mirroring cmd/dvmpsim; with more
// than one worker the CPU profile shows the placement hot path replicated
// across worker goroutines, which is how placement-kernel and scheduler
// costs are attributed under the parallel load (see README "Profiling").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		schemesFlag = fs.String("schemes", "", "comma-separated schemes (default: the paper's trio)")
		reps        = fs.Int("reps", 8, "number of replications; seeds are 1..reps")
		seedsFlag   = fs.String("seeds", "", "explicit comma-separated seed list (overrides -reps)")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent runs")
		nodes       = fs.Int("nodes", 100, "fleet size (Table II fast:slow mix is preserved)")
		jobCount    = fs.Int("jobs", 0, "truncate each seed's week to the first N jobs (0 = all)")
		useSpare    = fs.Bool("spare", true, "attach the spare-server controller to the dynamic scheme")
		outPath     = fs.String("o", "", "write the merged report as JSON to this file (- for stdout)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf     = fs.String("memprofile", "", "write an end-of-sweep heap profile to this file")
		tournament  = fs.Bool("tournament", false, "score the schemes as a policy tournament: per-objective ranks (energy, violations, migrations) combined by Borda count (default roster: the five-policy lab lineup)")
		verbose     = fs.Bool("v", false, "print every run, not just the per-scheme aggregates")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *reps < 1:
		return fmt.Errorf("-reps must be positive (got %d)", *reps)
	case *nodes <= 0:
		return fmt.Errorf("-nodes must be positive (got %d)", *nodes)
	case *jobCount < 0:
		return fmt.Errorf("-jobs must be >= 0 (got %d)", *jobCount)
	case *workers <= 0:
		return fmt.Errorf("-workers must be positive (got %d)", *workers)
	}
	schemes, err := parseSchemes(*schemesFlag)
	if err != nil {
		return err
	}
	seeds, err := parseSeeds(*seedsFlag, *reps)
	if err != nil {
		return err
	}
	if len(schemes) == 0 {
		if *tournament {
			schemes = exp.DefaultTournamentPolicies()
		} else {
			schemes = exp.DefaultOptions(0).Schemes
		}
	}
	// Validate the scheme list eagerly: a bad name should fail here with
	// the offending scheme named, not minutes into the sweep.
	for _, s := range schemes {
		if _, err := policy.ByName(s, 1); err != nil {
			return err
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
			}
		}()
	}

	opts := exp.SweepOptions{
		Base: exp.Options{
			SpareForDynamic: *useSpare,
			Fleet:           func() *cluster.Datacenter { return cluster.TableIIFleetScaled(*nodes) },
			TraceGen: func(seed int64) []workload.Request {
				_, reqs, _ := exp.Workload("", seed, *jobCount) // only reading a file can fail
				return reqs
			},
		},
		Schemes: schemes,
		Seeds:   seeds,
		Workers: *workers,
	}

	start := time.Now()
	report, err := exp.RunSweep(opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *tournament {
		return printTournament(report, *workers, elapsed, *outPath, out)
	}
	fmt.Fprintf(out, "sweep: %d runs (%d schemes x %d seeds) on %d workers in %.2fs (%.2f runs/sec)\n\n",
		len(report.Runs), len(report.Schemes), len(report.Seeds), *workers,
		elapsed.Seconds(), float64(len(report.Runs))/elapsed.Seconds())
	if *verbose {
		fmt.Fprintf(out, "%-12s %6s %12s %9s %11s %7s %8s\n",
			"scheme", "seed", "week kWh", "meanPMs", "migrations", "boots", "queued%")
		for _, r := range report.Runs {
			fmt.Fprintf(out, "%-12s %6d %12.1f %9.1f %11d %7d %7.2f%%\n",
				r.Scheme, r.Seed, r.WeekEnergyKWh, r.MeanActivePMs,
				r.Migrations, r.Boots, r.QueuedFraction*100)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%-12s %5s %21s %19s %9s %12s %8s\n",
		"scheme", "runs", "week kWh (mean±sd)", "[min, max]", "meanPMs", "migrations", "queued%")
	for _, a := range report.Aggregates {
		fmt.Fprintf(out, "%-12s %5d %13.1f ± %5.1f [%7.1f, %7.1f] %9.1f %12.1f %7.2f%%\n",
			a.Scheme, a.Runs,
			a.WeekEnergyKWh.Mean, a.WeekEnergyKWh.StdDev,
			a.WeekEnergyKWh.Min, a.WeekEnergyKWh.Max,
			a.MeanActivePMs.Mean, a.Migrations.Mean, a.QueuedFraction.Mean*100)
	}
	printWins(report, out)

	return writeReport(report, *outPath, out)
}

// printWins prints, when dynamic is in the roster, on how many seeds its
// week energy beat each other scheme's: the per-seed check of the E-R1
// robustness study that the aggregates' means cannot show.
func printWins(report *exp.SweepReport, out io.Writer) {
	dyn := slices.Index(report.Schemes, "dynamic")
	if dyn < 0 {
		return
	}
	// Runs holds one block of len(Seeds) runs per scheme, in seed order.
	n := len(report.Seeds)
	dynRuns := report.Runs[dyn*n : (dyn+1)*n]
	for si, scheme := range report.Schemes {
		if si == dyn {
			continue
		}
		wins := 0
		for i, r := range report.Runs[si*n : (si+1)*n] {
			if dynRuns[i].WeekEnergyKWh < r.WeekEnergyKWh {
				wins++
			}
		}
		fmt.Fprintf(out, "dynamic beats %-10s on %d/%d seeds\n", scheme, wins, n)
	}
}

// writeReport serves -o: the report as indented JSON, to the file at
// path or to out for "-"; nothing for an empty path.
func writeReport(report any, path string, out io.Writer) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := out.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s\n", path)
	return nil
}

// printTournament scores the sweep as a policy tournament and prints the
// standings (see exp.ScoreTournament; the report is byte-identical at
// every worker count, so -o output is machine-comparable).
func printTournament(sweep *exp.SweepReport, workers int, elapsed time.Duration, outPath string, out io.Writer) error {
	report := &exp.TournamentReport{Scores: exp.ScoreTournament(sweep), Sweep: sweep}
	fmt.Fprintf(out, "tournament: %d runs (%d policies x %d seeds) on %d workers in %.2fs\n\n",
		len(sweep.Runs), len(sweep.Schemes), len(sweep.Seeds), workers, elapsed.Seconds())
	fmt.Fprintf(out, "%4s %-18s %6s %14s %5s %12s %5s %12s %5s\n",
		"rank", "policy", "score", "energy kWh", "r", "violations", "r", "migrations", "r")
	for _, s := range report.Scores {
		fmt.Fprintf(out, "%4d %-18s %6d %14.1f %5d %11.2f%% %5d %12.1f %5d\n",
			s.Rank, s.Scheme, s.TotalScore,
			s.EnergyMean, s.EnergyRank,
			s.ViolationMean*100, s.ViolationRank,
			s.MigrationsMean, s.MigrationRank)
	}

	return writeReport(report, outPath, out)
}

// parseSchemes splits the -schemes list, rejecting empty entries: a stray
// comma would otherwise reach policy.ByName as a nameless scheme and fail
// deep inside the sweep with a confusing error — or worse, silently drop a
// scheme the user thought they were comparing. A repeated entry is
// rejected too: its rows would repeat, and the win lines would compare
// dynamic with itself.
func parseSchemes(list string) ([]string, error) {
	if list == "" {
		return nil, nil // the caller substitutes its default roster
	}
	var schemes []string
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			return nil, fmt.Errorf("empty scheme entry in -schemes %q", list)
		}
		if slices.Contains(schemes, s) {
			return nil, fmt.Errorf("repeated scheme %q in -schemes %q", s, list)
		}
		schemes = append(schemes, s)
	}
	return schemes, nil
}

// parseSeeds resolves the replication seeds: the explicit -seeds list when
// given, else 1..reps. A repeated seed is rejected: it would count one
// sample twice in every aggregate.
func parseSeeds(list string, reps int) ([]int64, error) {
	if list == "" {
		seeds := make([]int64, reps)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		return seeds, nil
	}
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed entry %q", f)
		}
		if slices.Contains(seeds, n) {
			return nil, fmt.Errorf("repeated seed %d in -seeds %q", n, list)
		}
		seeds = append(seeds, n)
	}
	return seeds, nil
}
