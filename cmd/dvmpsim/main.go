// Command dvmpsim runs one placement scheme over a workload trace on the
// paper's Table II data center and reports the energy, active-server, and
// QoS outcome.
//
// Usage:
//
//	dvmpsim [-scheme dynamic] [-swf lpc.swf] [-seed 1] [-spare]
//	        [-nodes 100] [-csv out.csv] [-v]
//	        [-trace run.trace] [-metrics run.metrics.json]
//	        [-decisions dec.log]
//	        [-replay dec.log [-what-if IDX:ALT | -list]]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The -cpuprofile and -memprofile flags capture runtime/pprof profiles of
// the whole run for `go tool pprof`; the placement hot path (the lazy
// rounds and the arrival argmax) is where the samples land under -scheme
// dynamic.
//
// -trace writes the structured run trace (one schema-versioned event a
// record: arrivals, placements, migrations, boots, failures, spare plans —
// see internal/obs and DESIGN.md §9) as binary records;
// `tracestat -render run.trace` prints it as JSONL, one event a line, and
// tracestat summarizes or diffs it as it is. -metrics dumps the run's
// metrics registry (event counters, queue-wait histogram, per-phase
// wall-clock timings) as JSON. Two runs with the same flags render
// byte-identical traces once the wall-clock field is stripped
// (`tracestat -diff` does this).
//
// -decisions records every policy decision — arrival placements with
// their top-k rejected alternatives, consolidation move batches, and
// spare-pool targets — as a separate stream of the same binary records,
// rendered the same way (see DESIGN.md §16). -replay reads such a log, a
// JSONL one, or a mix.
// The decision stream has its own logical clock, so recording leaves the
// run trace byte-identical to an unrecorded run (TestTraceEquivalence
// pins this).
//
// -replay re-runs a recorded log as policy.NewReplay(log, scheme) under
// the recording run's flags: a faithful replay reproduces its run trace
// byte-for-byte (TestFaithfulReplayReproducesTrace), a mismatch exits
// with a divergence error. -list prints the recorded placements with
// their ranked alternatives and exits; -what-if IDX:ALT takes alternative
// ALT at log index IDX and the live scheme afterward, the counterfactual
// (diff the two traces with cmd/tracestat). A replay cannot -checkpoint,
// -resume or record -decisions (DESIGN.md §16).
//
// Without -swf a synthetic week calibrated to the paper's Figure 2 is
// generated from -seed. With -swf, the file is parsed as Standard
// Workload Format (so the original LPC log from the Parallel Workloads
// Archive can be used directly), filtered, and normalized per Section V.A.
//
// Checkpoint and resume: -checkpoint names a checkpoint file,
// -checkpoint-every N rewrites it (atomically) every N dispatched events,
// -stop-after N checkpoints and exits at event N (a controlled crash),
// and -resume restores a run from a checkpoint under the same flags. A
// resumed run continues bit-exactly: its trace concatenated after the
// interrupted run's is canonically byte-identical to an uninterrupted
// run's (see DESIGN.md §11 and TestTraceEquivalence).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/audit"
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
		fmt.Fprintln(os.Stderr, "dvmpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dvmpsim", flag.ContinueOnError)
	var (
		scheme    = fs.String("scheme", "dynamic", "placement scheme: first-fit, best-fit, worst-fit, random, threshold, dynamic, overbook, dynamic-adaptive")
		swfPath   = fs.String("swf", "", "SWF workload file (default: synthetic week from -seed)")
		tracePath = fs.String("trace", "", "write the run trace to this `file` as binary records; tracestat -render prints them as JSONL")
		decPath   = fs.String("decisions", "", "record every placement decision (with top-k alternatives) to this `file` as binary records; replay with -replay, print as JSONL with tracestat -render")
		metrPath  = fs.String("metrics", "", "write the run's metrics registry as JSON to this file")
		seed      = fs.Int64("seed", 1, "workload / random-scheme seed")
		useSpare  = fs.Bool("spare", false, "enable the spare-server controller (Section IV)")
		nodes     = fs.Int("nodes", 100, "fleet size (Table II fast:slow mix is preserved)")
		jobCount  = fs.Int("jobs", 0, "truncate the workload to the first N jobs (0 = all)")
		timed     = fs.Bool("timed", false, "use the timed pre-copy migration model")
		warm      = fs.Int("warm", 0, "power on N machines before the first arrival")
		auditMode = fs.String("audit", "off", "invariant auditing: off, period (each control period), event (after every event)")
		csvPath   = fs.String("csv", "", "write hourly active/energy series as CSV")
		verbose   = fs.Bool("v", false, "print the hourly series to stdout")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write an end-of-run heap profile to this file")
		ckptPath  = fs.String("checkpoint", "", "checkpoint file to write (atomically, via rename)")
		ckptEvery = fs.Int64("checkpoint-every", 0, "checkpoint every N dispatched events (requires -checkpoint)")
		stopAfter = fs.Int64("stop-after", 0, "stop after N dispatched events, write a final checkpoint, and exit (requires -checkpoint)")
		resumeArg = fs.String("resume", "", "resume the run from this checkpoint file instead of starting fresh")
		replayArg = fs.String("replay", "", "replay this decision log (recorded with -decisions under the same flags; binary or JSONL); -scheme is the fallback")
		whatIf    = fs.String("what-if", "", "with -replay: substitute alternative ALT at decision log index IDX, as IDX:ALT")
		list      = fs.Bool("list", false, "with -replay: print the recorded placement decisions and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Uniform flag validation: every bad value dies here with one line,
	// before any file is created or any work starts.
	switch {
	case *nodes <= 0:
		return fmt.Errorf("-nodes must be positive (got %d)", *nodes)
	case *jobCount < 0:
		return fmt.Errorf("-jobs must be >= 0 (got %d)", *jobCount)
	case *warm < 0:
		return fmt.Errorf("-warm must be >= 0 (got %d)", *warm)
	case *ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d)", *ckptEvery)
	case *stopAfter < 0:
		return fmt.Errorf("-stop-after must be >= 0 (got %d)", *stopAfter)
	case (*ckptEvery > 0 || *stopAfter > 0) && *ckptPath == "":
		return fmt.Errorf("-checkpoint-every and -stop-after need -checkpoint to say where the checkpoint goes")
	case (*whatIf != "" || *list) && *replayArg == "":
		return fmt.Errorf("-what-if and -list need -replay to name the decision log")
	case *replayArg != "" && *ckptPath != "":
		return fmt.Errorf("-replay cannot -checkpoint: a replay's position in its log is not checkpoint state")
	case *replayArg != "" && *resumeArg != "":
		return fmt.Errorf("-replay cannot -resume: a replay's position in its log is not checkpoint state")
	case *replayArg != "" && *decPath != "":
		return fmt.Errorf("-replay cannot record -decisions: replayed moves carry no column alternatives")
	}

	placer, err := policy.ByName(*scheme, *seed)
	if err != nil {
		return err
	}
	var rp *policy.Replay
	if *replayArg != "" {
		f, err := os.Open(*replayArg)
		if err != nil {
			return err
		}
		log, err := policy.ParseDecisionLog(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "decision log: %d records from %s\n", len(log), *replayArg)
		if *list {
			return listPlacements(out, log)
		}
		rp = policy.NewReplay(log, placer)
		if *whatIf != "" {
			if rp.Override, err = parseWhatIf(*whatIf, log); err != nil {
				return err
			}
		}
		placer = rp
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
				fmt.Fprintln(os.Stderr, "dvmpsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvmpsim: memprofile:", err)
			}
		}()
	}

	jobs, reqs, err := exp.Workload(*swfPath, *seed, *jobCount)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload: %d jobs -> %d single-core VM requests\n", len(jobs), len(reqs))

	cfg := sim.Config{DC: cluster.TableIIFleetScaled(*nodes), Placer: placer, Requests: reqs, TimedMigrations: *timed, WarmStart: *warm}
	cfg.Audit, err = audit.ParseMode(*auditMode)
	if err != nil {
		return err
	}
	if *useSpare {
		sc := spare.DefaultConfig()
		cfg.Spare = &sc
	}
	// The sinks are closed even after a failed or stopped run: a trace or
	// decision log that ends at an audit violation or a checkpoint is
	// exactly what you want to inspect (and what -resume and -replay read).
	var sinks []*obs.TraceFile
	sink := func(path string) (*obs.Tracer, error) {
		if path == "" {
			return nil, nil
		}
		tf, err := obs.CreateTrace(path)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, tf)
		return tf.Tracer, nil
	}
	if *tracePath != "" || *metrPath != "" || *decPath != "" {
		cfg.Obs = obs.New()
		if cfg.Obs.Trace, err = sink(*tracePath); err != nil {
			return err
		}
		if cfg.Obs.Decisions, err = sink(*decPath); err != nil {
			return err
		}
	}
	if *decPath != "" {
		// Recording wraps the configured policy; the decision stream has
		// its own logical clock, so the run trace stays byte-identical to
		// an unrecorded run (TestTraceEquivalence pins this).
		cfg.Placer = policy.NewRecorder(placer, 0)
	}
	res, stopped, err := runSim(cfg, out, *resumeArg, *ckptPath, uint64(*ckptEvery), uint64(*stopAfter))
	for _, tf := range sinks {
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if stopped {
		// -stop-after hit: the state lives in the checkpoint, there is no
		// Result to report.
		return nil
	}
	if *tracePath != "" {
		fmt.Fprintf(out, "trace: %d events written to %s\n", cfg.Obs.Trace.Events(), *tracePath)
	}
	if *decPath != "" {
		fmt.Fprintf(out, "decisions: %d records written to %s\n", cfg.Obs.Decisions.Events(), *decPath)
	}
	if *metrPath != "" {
		f, err := os.Create(*metrPath)
		if err != nil {
			return err
		}
		if err := cfg.Obs.Reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics: %s\n", *metrPath)
	}

	if err := metrics.WriteSummaries(out, []metrics.Summary{res.Summary}); err != nil {
		return err
	}
	fmt.Fprintf(out, "energy by class: %v kWh\n", res.EnergyByClassKWh)
	if cfg.Audit != audit.Off {
		fmt.Fprintf(out, "audit: %d checks passed (mode %s)\n", res.AuditChecks, cfg.Audit)
	}
	if res.Failures > 0 {
		fmt.Fprintf(out, "PM failures injected: %d\n", res.Failures)
	}
	if rp != nil {
		// Divergence verdict: an Override is supposed to fork the run
		// (that is the counterfactual), anything else leaving the log is
		// an error.
		if rerr := rp.Err(); rerr != nil {
			return fmt.Errorf("replay diverged unexpectedly: %w", rerr)
		}
		switch {
		case rp.Override != nil:
			fmt.Fprintf(out, "counterfactual: forked at decision #%d (alternative %d), live %s afterward\n",
				rp.Override.Index, rp.Override.Alt, *scheme)
		case rp.Diverged():
			// Diverged with a nil error cannot happen without an
			// Override, but keep the verdict exhaustive.
			return fmt.Errorf("replay diverged without a recorded reason")
		default:
			fmt.Fprintln(out, "replay: faithful (every decision matched the log)")
		}
	}

	table := &metrics.Table{TimeLabel: "hour", Series: []*metrics.Series{res.ActivePMs, res.EnergyKWh}}
	if *verbose {
		if err := table.WriteText(out); err != nil {
			return err
		}
		if cfg.Obs != nil {
			fmt.Fprintln(out, "-- run metrics --")
			if err := cfg.Obs.Reg.WriteText(out); err != nil {
				return err
			}
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := table.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "hourly series written to %s\n", *csvPath)
	}
	return nil
}

// runSim drives the simulation loop with the checkpoint hooks: resume
// from a checkpoint file instead of a fresh start, periodic checkpoints
// every N events, and a -stop-after cutoff that checkpoints and exits
// mid-run (the "controlled crash" the resume audit restores from).
// stopped reports the cutoff path, in which case res is nil.
func runSim(cfg sim.Config, out io.Writer, resumePath, ckptPath string, every, stopAfter uint64) (res *sim.Result, stopped bool, err error) {
	var m *sim.Sim
	if resumePath != "" {
		f, oerr := os.Open(resumePath)
		if oerr != nil {
			return nil, false, oerr
		}
		m, err = sim.Restore(cfg, f)
		f.Close()
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(out, "resumed: %s at event %d (t=%.1f)\n", resumePath, m.Dispatched(), m.Now())
	} else {
		if m, err = sim.New(cfg); err != nil {
			return nil, false, err
		}
	}
	lastCkpt := m.Dispatched()
	for {
		if stopAfter > 0 && m.Dispatched() >= stopAfter && m.Pending() > 0 {
			if err := writeCheckpoint(m, ckptPath); err != nil {
				return nil, false, err
			}
			fmt.Fprintf(out, "checkpoint: %s at event %d (t=%.1f), stopping\n", ckptPath, m.Dispatched(), m.Now())
			return nil, true, nil
		}
		if every > 0 && m.Dispatched() >= lastCkpt+every {
			if err := writeCheckpoint(m, ckptPath); err != nil {
				return nil, false, err
			}
			lastCkpt = m.Dispatched()
		}
		ok, serr := m.Step()
		if serr != nil {
			return nil, false, serr
		}
		if !ok {
			break
		}
	}
	res, err = m.Finish()
	return res, false, err
}

// writeCheckpoint saves the run state atomically: write to a temp file in
// the same directory, then rename over the target, so a crash mid-write
// never leaves a truncated checkpoint where a good one stood.
func writeCheckpoint(m *sim.Sim, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := m.Save(w); err == nil {
		err = w.Flush()
	} else {
		w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
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
