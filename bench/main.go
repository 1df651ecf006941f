// Command bench is the repo's end-to-end benchmark: five whole-run
// workloads through the entry points the CLIs use, one set of end-to-end
// metrics, and per-layer spans timed from outside the program. See
// README.md in this directory for the catalogue and the predictions.
//
//	go run ./bench                                  all workloads -> bench/out/results.json
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1
//	go run ./bench -compare a.json b.json           or a1.json a2.json ... b1.json b2.json ...
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload in this process (default: all five, one child process each)")
		seed    = fs.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds = fs.Float64("seconds", 12, "how long each workload's timed runs go on for")
		trace   = fs.Int("trace", 0, "1 = also take the traced run and print the per-layer metrics")
		smoke   = fs.Bool("smoke", false, "reduced size: first 300 jobs of every trace, 2 timed runs")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for result and span files")
		compare = fs.Bool("compare", false, "compare result files of one seed: -compare a.json b.json, or a1.json a2.json ... b1.json b2.json ...")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		n := fs.NArg()
		if n < 2 || n%2 != 0 {
			return fmt.Errorf("-compare takes the result files of two sides, as many for one as for the other")
		}
		return compareFiles(out, fs.Args()[:n/2], fs.Args()[n/2:])
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *seconds <= 0:
		return fmt.Errorf("-seconds must be positive (got %v)", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *outDir}
	if *name == "" {
		return runAll(out, o)
	}
	w, ok := specByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	if err := res.print(out, o.trace); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: verification failed", w.name)
	}
	return nil
}

// print writes the workload's metrics by name with their units, the
// failure count, and last the one-line JSON object of the run contract.
func (r *result) print(out io.Writer, trace bool) error {
	fmt.Fprintf(out, "== %s (seed %d)\n", r.Workload, r.Seed)
	sets := []*metricSet{&r.endToEnd}
	if trace {
		sets = append(sets, &r.perLayer)
	}
	for _, s := range sets {
		for _, n := range s.Names {
			fmt.Fprintf(out, "%-34s %14.6g %s\n", n, s.M[n].Value, s.M[n].Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
	}
	fmt.Fprintf(out, "failed / ops: %d / %d\n", r.Failed, r.Ops)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Ops, r.Failed, map[string]value{}}
	for n, m := range sets[len(sets)-1].M {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// results is the merged file `go run ./bench` writes and -compare reads.
type results struct {
	Host      host      `json:"host"`
	Seed      int64     `json:"seed"`
	Claim     *string   `json:"claim"`
	Workloads []*result `json:"workloads"`
}

// runAll re-executes this binary once per workload, so peak RSS and GC
// pacing are each workload's own, then merges the children's result files.
func runAll(out io.Writer, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	merged := results{Host: hostRecord(), Seed: o.seed}
	failed := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-trace", "1", "-out", o.outDir,
			"-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		resultPath := filepath.Join(o.outDir, w.name+".json")
		os.Remove(resultPath) // never merge a previous invocation's file
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			failed++
			fmt.Fprintf(out, "%s: %v\n", w.name, err)
		}
		var res result
		if err := readJSON(resultPath, &res); err != nil {
			return err
		}
		merged.Workloads = append(merged.Workloads, &res)
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := writeJSON(path, merged); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloads))
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
