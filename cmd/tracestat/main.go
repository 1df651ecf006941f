// Command tracestat summarizes, compares and renders the run traces and
// decision logs that `dvmpsim -trace` and `-decisions` write.
//
// Usage:
//
//	tracestat run.trace             summarize one trace
//	tracestat -hours run.trace      add the per-hour activity table
//	tracestat -diff a.trace b.trace compare two traces, ignoring wall clocks
//	tracestat -render in [out]      write a trace or decision log as JSONL
//
// dvmpsim writes binary records (DESIGN.md §9); every mode reads them
// through obs.Reader, which also passes JSONL lines through, so a JSONL
// file an older build wrote, or a mix of the two forms, reads the same
// way. -render writes the JSONL form — one schema-versioned JSON object a
// line, "wall" last — to out, or to standard output without it.
//
// The summary reports per-event-type counts, the run header/footer, and
// migration statistics (count, mean gain, busiest hour). The per-hour
// table buckets arrivals, departures, migrations, boots, shutdowns, and
// failures by simulation hour — the operational view related placement
// studies evaluate schemes on.
//
// -diff renders both inputs, strips every line's wall-clock field (the
// only nondeterministic part of a trace) and then requires the two traces
// to be byte-identical; the first divergence is printed and the exit
// status is nonzero. Two same-seed runs of the same binary must pass this
// — it is the CLI face of the repo's determinism guarantee — and so must a
// base commit's JSONL trace against this tree's binary one. Damaged inputs
// fail loudly rather than vacuously agreeing: an empty file, a damaged
// record (named by obs.Reader), a line of invalid JSON, or a run_start
// header with no run_end footer each exit nonzero with the reason named
// (two empty traces are byte-identical, and before this check -diff
// happily certified them as a passing determinism audit).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

// event is the decoded union of every trace event's fields; absent fields
// stay zero. Unknown fields are ignored, so newer schema versions still
// summarize.
type event struct {
	V     int     `json:"v"`
	Seq   uint64  `json:"seq"`
	T     float64 `json:"t"`
	Event string  `json:"event"`

	VM     int64   `json:"vm"`
	PM     int64   `json:"pm"`
	From   int64   `json:"from"`
	To     int64   `json:"to"`
	Gain   float64 `json:"gain"`
	Round  int64   `json:"round"`
	Spares int64   `json:"spares"`

	Scheme     string `json:"scheme"`
	Requests   int64  `json:"requests"`
	PMs        int64  `json:"pms"`
	Completed  int64  `json:"completed"`
	Migrations int64  `json:"migrations"`
	Error      string `json:"error"`
}

const usage = "usage: tracestat [-hours] trace | tracestat -diff a b | tracestat -render in [out]"

func run(args []string, out io.Writer) error {
	diff, hours, render := false, false, false
	var paths []string
	for _, a := range args {
		switch a {
		case "-diff", "--diff":
			diff = true
		case "-hours", "--hours":
			hours = true
		case "-render", "--render":
			render = true
		default:
			if len(a) > 0 && a[0] == '-' {
				return fmt.Errorf("unknown flag %q (want -diff, -hours or -render)", a)
			}
			paths = append(paths, a)
		}
	}
	switch {
	case diff && (hours || render), hours && render:
		return fmt.Errorf("-diff, -hours and -render do not combine; %s", usage)
	case diff:
		if len(paths) != 2 {
			return fmt.Errorf("-diff needs exactly two trace files, got %d", len(paths))
		}
		return diffTraces(paths[0], paths[1], out)
	case render:
		if len(paths) != 1 && len(paths) != 2 {
			return fmt.Errorf("-render needs an input and at most one output file, got %d files", len(paths))
		}
		return renderFile(paths, out)
	case len(paths) != 1:
		return errors.New(usage)
	}
	return summarize(paths[0], hours, out)
}

// renderFile writes paths[0] as JSONL to paths[1], or to out.
func renderFile(paths []string, out io.Writer) error {
	in, err := os.Open(paths[0])
	if err != nil {
		return err
	}
	defer in.Close()
	if len(paths) == 1 {
		return obs.Render(in, out)
	}
	f, err := os.Create(paths[1])
	if err != nil {
		return err
	}
	if err := obs.Render(in, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// eachLine calls fn with every record of the file at path, rendered as a
// JSONL line, and its 1-based position.
func eachLine(path string, fn func(n int, line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := obs.NewReader(f)
	for n := 1; ; n++ {
		line, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := fn(n, line); err != nil {
			return err
		}
	}
}

func readEvents(path string) ([]event, error) {
	var evs []event
	err := eachLine(path, func(n int, line []byte) error {
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("%s:%d: %w", path, n, err)
		}
		evs = append(evs, ev)
		return nil
	})
	return evs, err
}

func summarize(path string, hours bool, out io.Writer) error {
	evs, err := readEvents(path)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("%s: empty trace", path)
	}

	counts := map[string]int{}
	byHour := map[int]map[string]int{}
	var migGainSum float64
	var migs int
	lastT := 0.0
	for _, ev := range evs {
		counts[ev.Event]++
		if ev.T > lastT {
			lastT = ev.T
		}
		h := int(ev.T / 3600)
		if byHour[h] == nil {
			byHour[h] = map[string]int{}
		}
		byHour[h][ev.Event]++
		if ev.Event == "migration" {
			migs++
			migGainSum += ev.Gain
		}
	}

	fmt.Fprintf(out, "trace: %s — %d events, %.1f simulated hours (schema v%d)\n",
		path, len(evs), lastT/3600, evs[0].V)
	if evs[0].Event == "run_start" {
		fmt.Fprintf(out, "run: scheme=%s pms=%d requests=%d\n", evs[0].Scheme, evs[0].PMs, evs[0].Requests)
	}
	if last := evs[len(evs)-1]; last.Event == "run_end" {
		fmt.Fprintf(out, "end: completed=%d migrations=%d\n", last.Completed, last.Migrations)
	}

	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	fmt.Fprintln(out, "event counts:")
	for _, t := range types {
		fmt.Fprintf(out, "  %-16s %8d\n", t, counts[t])
	}
	if migs > 0 {
		best, bestN := 0, 0
		for h, m := range byHour {
			if m["migration"] > bestN {
				best, bestN = h, m["migration"]
			}
		}
		fmt.Fprintf(out, "migrations: %d total, mean gain %.3f, busiest hour %d (%d moves)\n",
			migs, migGainSum/float64(migs), best, bestN)
	}
	if n := counts["audit_violation"]; n > 0 {
		fmt.Fprintf(out, "WARNING: %d audit violation(s) in trace\n", n)
	}

	if hours {
		cols := []string{"arrival", "depart", "migration", "boot", "shutdown", "failure", "spare_plan"}
		fmt.Fprintf(out, "%-6s", "hour")
		for _, c := range cols {
			fmt.Fprintf(out, " %10s", c)
		}
		fmt.Fprintln(out)
		hs := make([]int, 0, len(byHour))
		for h := range byHour {
			hs = append(hs, h)
		}
		sort.Ints(hs)
		for _, h := range hs {
			fmt.Fprintf(out, "%-6d", h)
			for _, c := range cols {
				fmt.Fprintf(out, " %10d", byHour[h][c])
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}

// diffTraces compares two traces modulo wall-clock fields. It reports the
// first diverging event (or a length mismatch) and returns an error when
// the traces differ.
func diffTraces(pathA, pathB string, out io.Writer) error {
	a, err := canonicalLines(pathA)
	if err != nil {
		return err
	}
	b, err := canonicalLines(pathB)
	if err != nil {
		return err
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(a[i], b[i]) {
			fmt.Fprintf(out, "traces diverge at event %d:\n- %s\n+ %s\n", i, a[i], b[i])
			return fmt.Errorf("traces differ (first divergence at event %d)", i)
		}
	}
	if len(a) != len(b) {
		fmt.Fprintf(out, "traces share %d events, then lengths differ: %d vs %d\n", n, len(a), len(b))
		return fmt.Errorf("traces differ in length: %d vs %d events", len(a), len(b))
	}
	fmt.Fprintf(out, "traces identical: %d events (wall-clock fields ignored)\n", len(a))
	return nil
}

// canonicalLines loads a trace for diffing, with integrity checks: an
// empty file, a damaged record or a line of invalid JSON (the signature
// of a run killed mid-write), or a run_start header with no run_end
// footer each fail with a named reason. A damaged trace must never diff as "identical" —
// two empty files agree byte-for-byte and would otherwise pass.
func canonicalLines(path string) ([][]byte, error) {
	var lines [][]byte
	var firstEvent, lastEvent string
	err := eachLine(path, func(n int, line []byte) error {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("%s:%d: invalid JSON (truncated or corrupt trace): %w", path, n, err)
		}
		if len(lines) == 0 {
			firstEvent = ev.Event
		}
		lastEvent = ev.Event
		lines = append(lines, obs.CanonicalLine(line))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("%s: empty trace (no events)", path)
	}
	if firstEvent == "run_start" && lastEvent != "run_end" {
		return nil, fmt.Errorf("%s: truncated trace: run_start without run_end (%d events)", path, len(lines))
	}
	return lines, nil
}
