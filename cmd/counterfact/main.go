// Command counterfact replays a decision log recorded by dvmpsim
// -decisions, either verbatim or under a counterfactual substitution.
//
// Usage:
//
//	counterfact -decisions dec.jsonl [-scheme dynamic] [-seed 1]
//	            [-nodes 100] [-jobs 0] [-spare] [-timed] [-warm N]
//	            [-swf lpc.swf]
//	            [-list] [-what-if IDX:ALT] [-trace replay.jsonl]
//
// The workload flags must match the recording run: replay is a strict
// re-execution of the recorded decisions against the same arrival
// stream, so the same -scheme/-seed/-nodes/-jobs/... flags that
// produced the log reproduce the original run trace byte-for-byte
// (TestFaithfulReplayReproducesTrace pins this). Any mismatch surfaces as a
// divergence error and a non-zero exit.
//
// -list prints the recorded placement decisions with their log index
// and ranked alternatives — the coordinates -what-if takes. -what-if
// IDX:ALT substitutes alternative ALT for the recorded choice at log
// index IDX (a placement record); the run follows the log up to the
// substitution and the live fallback scheme afterward, which is the
// counterfactual: "what if we'd picked alternative #2 here?". Compare
// the -trace output of a faithful and a counterfactual replay with
// cmd/tracestat to see exactly where the futures fork.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spare"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "counterfact:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("counterfact", flag.ContinueOnError)
	var (
		decPath   = fs.String("decisions", "", "decision log to replay (required; record with dvmpsim -decisions)")
		scheme    = fs.String("scheme", "dynamic", "scheme that recorded the log (the replay's fallback)")
		swfPath   = fs.String("swf", "", "SWF workload file (default: synthetic week from -seed)")
		seed      = fs.Int64("seed", 1, "workload / random-scheme seed")
		nodes     = fs.Int("nodes", 100, "fleet size (Table II fast:slow mix is preserved)")
		jobCount  = fs.Int("jobs", 0, "truncate the workload to the first N jobs (0 = all)")
		useSpare  = fs.Bool("spare", false, "enable the spare-server controller (Section IV)")
		timed     = fs.Bool("timed", false, "use the timed pre-copy migration model")
		warm      = fs.Int("warm", 0, "power on N machines before the first arrival")
		tracePath = fs.String("trace", "", "write the replay's JSONL run trace to this file")
		whatIf    = fs.String("what-if", "", "substitute alternative ALT at decision log index IDX, as IDX:ALT")
		list      = fs.Bool("list", false, "print the recorded placement decisions and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *decPath == "":
		return fmt.Errorf("-decisions is required: record a log with dvmpsim -decisions first")
	case *nodes <= 0:
		return fmt.Errorf("-nodes must be positive (got %d)", *nodes)
	case *jobCount < 0:
		return fmt.Errorf("-jobs must be >= 0 (got %d)", *jobCount)
	case *warm < 0:
		return fmt.Errorf("-warm must be >= 0 (got %d)", *warm)
	}

	f, err := os.Open(*decPath)
	if err != nil {
		return err
	}
	log, err := policy.ParseDecisionLog(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "decision log: %d records from %s\n", len(log), *decPath)

	if *list {
		return listPlacements(out, log)
	}

	fallback, err := policy.ByName(*scheme, *seed)
	if err != nil {
		return err
	}

	rp := policy.NewReplay(log, fallback)
	if *whatIf != "" {
		ov, err := parseWhatIf(*whatIf, log)
		if err != nil {
			return err
		}
		rp.Override = ov
	}

	_, reqs, err := exp.Workload(*swfPath, *seed, *jobCount)
	if err != nil {
		return err
	}
	cfg := sim.Config{DC: cluster.TableIIFleetScaled(*nodes), Placer: rp, Requests: reqs, TimedMigrations: *timed, WarmStart: *warm}
	if *useSpare {
		sc := spare.DefaultConfig()
		cfg.Spare = &sc
	}
	var trace *obs.TraceFile
	if *tracePath != "" {
		if trace, err = obs.CreateTrace(*tracePath); err != nil {
			return err
		}
		cfg.Obs = obs.New()
		cfg.Obs.Trace = trace.Tracer
	}

	// No checkpoint hooks: a counterfactual is always a fresh full run
	// over the log.
	res, err := sim.Run(cfg)
	if trace != nil {
		if cerr := trace.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if *tracePath != "" {
		fmt.Fprintf(out, "trace: %d events written to %s\n", cfg.Obs.Trace.Events(), *tracePath)
	}
	if err := metrics.WriteSummaries(out, []metrics.Summary{res.Summary}); err != nil {
		return err
	}

	// Divergence verdict: an Override is supposed to fork the run (that
	// is the counterfactual), anything else leaving the log is an error.
	if rerr := rp.Err(); rerr != nil {
		return fmt.Errorf("replay diverged unexpectedly: %w", rerr)
	}
	switch {
	case rp.Override != nil:
		fmt.Fprintf(out, "counterfactual: forked at decision #%d (alternative %d), live %s afterward\n",
			rp.Override.Index, rp.Override.Alt, *scheme)
	case rp.Diverged():
		// Diverged with a nil error cannot happen without an Override,
		// but keep the verdict exhaustive.
		return fmt.Errorf("replay diverged without a recorded reason")
	default:
		fmt.Fprintln(out, "replay: faithful (every decision matched the log)")
	}
	return nil
}

// listPlacements prints the recorded placement decisions in -what-if
// coordinates: the log index, the recorded choice, and the ranked
// alternatives the recorder captured.
func listPlacements(out io.Writer, log []policy.Decision) error {
	n := 0
	for idx, d := range log {
		if d.Kind != policy.KindPlace {
			continue
		}
		n++
		choice := "queued"
		if d.PM >= 0 {
			choice = fmt.Sprintf("pm %d", d.PM)
		}
		alts := make([]string, len(d.Alts))
		for i, a := range d.Alts {
			alts[i] = fmt.Sprintf("%d: pm %d (%.4g)", i, a.PM, a.Score)
		}
		altStr := "none"
		if len(alts) > 0 {
			altStr = strings.Join(alts, ", ")
		}
		fmt.Fprintf(out, "#%-5d t=%-12.1f vm %-6d -> %-8s alternatives: %s\n", idx, d.T, d.VM, choice, altStr)
	}
	fmt.Fprintf(out, "%d placement decisions (use -what-if IDX:ALT to fork one)\n", n)
	return nil
}

// parseWhatIf resolves -what-if IDX:ALT against the parsed log so typos
// fail here, naming the problem, instead of mid-replay.
func parseWhatIf(s string, log []policy.Decision) (*policy.ReplayOverride, error) {
	idxStr, altStr, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("-what-if wants IDX:ALT (got %q)", s)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil {
		return nil, fmt.Errorf("-what-if index %q: %v", idxStr, err)
	}
	alt, err := strconv.Atoi(altStr)
	if err != nil {
		return nil, fmt.Errorf("-what-if alternative %q: %v", altStr, err)
	}
	if idx < 0 || idx >= len(log) {
		return nil, fmt.Errorf("-what-if index %d out of range (log has %d records)", idx, len(log))
	}
	d := log[idx]
	if d.Kind != policy.KindPlace {
		return nil, fmt.Errorf("-what-if index %d is not a placement record (see -list)", idx)
	}
	if alt < 0 || alt >= len(d.Alts) {
		return nil, fmt.Errorf("-what-if alternative %d out of range: record %d has %d alternatives", alt, idx, len(d.Alts))
	}
	return &policy.ReplayOverride{Index: idx, Alt: alt}, nil
}
