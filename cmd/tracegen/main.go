// Command tracegen synthesizes an LPC-like workload trace in Standard
// Workload Format and prints its Figure 2 statistics.
//
// Usage:
//
//	tracegen [-seed 1] [-days 7] [-jobs 4574] [-o trace.swf] [-stats]
//
// With -o the trace is written as SWF (readable by dvmpsim -trace and any
// Parallel Workloads Archive tooling); with -stats the jobs/day, memory,
// and runtime distributions are printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "generator seed")
		days    = fs.Int("days", 7, "trace length in days")
		jobs    = fs.Int("jobs", 4574, "total jobs across the trace")
		outPath = fs.String("o", "", "output SWF path (default: stdout off, stats only)")
		stats   = fs.Bool("stats", true, "print workload statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *days < 1 || *jobs < 1 {
		return fmt.Errorf("days and jobs must be positive")
	}

	trace, err := workload.Generate(workload.ScaledWeekConfig(*seed, *days, *jobs))
	if err != nil {
		return err
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		header := fmt.Sprintf("synthetic LPC-like trace\nseed: %d\njobs: %d\ndays: %d", *seed, len(trace), *days)
		if err := workload.WriteSWF(f, trace, header); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d jobs to %s\n", len(trace), *outPath)
	}

	if *stats {
		s := workload.Summarize(trace)
		fmt.Fprintf(out, "jobs: %d, VM requests after core split: %d\n", s.TotalJobs, s.TotalRequests)
		fmt.Fprintf(out, "peak day: %d (%d requests)\n", s.PeakDay, s.PeakDayRequests)
		fmt.Fprintf(out, "requests/day: %v\n", s.JobsPerDay)
		fmt.Fprintf(out, "requests under 1 GB: %.1f%%\n", s.UnderOneGB*100)
		fmt.Fprintf(out, "jobs under 1 day: %d\n", s.UnderOneDay)
		fmt.Fprintf(out, "\nmemory per request (GB):\n%s", s.MemHistogram.String())
		fmt.Fprintf(out, "\nruntime (hours):\n%s", s.RuntimeHistogram.String())
	}
	return nil
}
