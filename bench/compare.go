package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
)

// tolerance is how much worse one end-to-end metric may read in the second
// of two result sets taken on one seed and one host before -compare calls
// it a regression. All nine are lower-is-better.
type tolerance struct {
	name  string
	bound float64
	// points: the bound is absolute, in the metric's own unit (queued_pct
	// is itself a percentage), not a share of the first set's value.
	points bool
	// host: a measurement of the host, which moves from run to run;
	// simulated statistics and allocation counts repeat. within names the
	// per-layer metric holding its IQR/median inside one result set, where
	// a set takes it more than once; a set whose timed runs went through the
	// inputs once only repeated nothing and holds 0 there. Peak RSS is one
	// sample a process.
	host   bool
	within string
}

// tolerances are the same-seed bounds. BENCHMARK.json's bounds are wider
// because the acceptance driver takes its spread over ten different seeds,
// and a different week is different work (README, "Two sets of bounds").
var tolerances = []tolerance{
	{name: "wall_s", bound: 0.10, host: true, within: "bench.wall_iqr_ratio"},
	{name: "cpu_s", bound: 0.10, host: true, within: "bench.wall_iqr_ratio"},
	{name: "setup_s", bound: 0.15, host: true, within: "bench.setup_iqr_ratio"},
	{name: "alloc_mb", bound: 0.05},
	{name: "allocs_k", bound: 0.05},
	{name: "peak_rss_mb", bound: 0.10, host: true},
	{name: "energy_kwh", bound: 0.005},
	{name: "queued_pct", bound: 0.1, points: true},
	{name: "migrations", bound: 0.01},
}

// lookup finds a metric under its name in either set of a result: the
// three statistics BENCHMARK.json cannot bound are filed per layer.
func (r *result) lookup(name string) (float64, error) {
	if m, ok := r.EndToEnd[name]; ok {
		return m.Value, nil
	}
	if m, ok := r.PerLayer[name]; ok {
		return m.Value, nil
	}
	return 0, fmt.Errorf("metric %s missing", name)
}

// side is one side of a comparison: one workload's results from every
// result set taken of one commit.
type side []*result

func (sd side) failed() int {
	n := 0
	for _, r := range sd {
		n += r.Failed
	}
	return n
}

// column reads one metric from every result set of the side.
func (sd side) column(name string) ([]float64, error) {
	out := make([]float64, len(sd))
	for i, r := range sd {
		v, err := r.lookup(name)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// spread is the widest run-to-run spread the side shows for a host
// measurement: inside any one result set (the IQR/median metric it
// recorded, if any) or between the sets' values. The box's speed plateaus
// outlast an invocation, so with one set a side the first alone
// understates it. A single set that measured no spread of its own (no such
// metric, or one cycle) leaves the spread unknown: +Inf, wider than any
// bound.
func (sd side) spread(values []float64, within string) (float64, error) {
	widest := 0.0
	if within != "" {
		w, err := sd.column(within)
		if err != nil {
			return 0, err
		}
		for _, v := range w {
			widest = max(widest, v)
		}
	}
	if len(values) > 1 {
		q1, q2, q3 := quartiles(values)
		widest = max(widest, ratio(q3-q1, q2))
	} else if widest == 0 {
		return math.Inf(1), nil
	}
	return widest, nil
}

// loadSide reads the result sets taken of one commit and groups them by
// workload, refusing sets that cannot stand for one commit on one seed.
func loadSide(paths []string) (seed int64, names []string, byWorkload map[string]side, err error) {
	byWorkload = map[string]side{}
	for i, p := range paths {
		var set results
		if err := readJSON(p, &set); err != nil {
			return 0, nil, nil, err
		}
		if i == 0 {
			seed = set.Seed
		}
		if set.Seed != seed {
			return 0, nil, nil, fmt.Errorf("%s: seed %d, %s has seed %d", p, set.Seed, paths[0], seed)
		}
		for _, r := range set.Workloads {
			if !r.Correct {
				return 0, nil, nil, fmt.Errorf("%s: %s failed verification", p, r.Workload)
			}
			if i == 0 {
				names = append(names, r.Workload)
			}
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	for _, sd := range byWorkload {
		if len(sd) != len(paths) {
			return 0, nil, nil, fmt.Errorf("%v: workload %s is in %d of %d result sets", paths, sd[0].Workload, len(sd), len(paths))
		}
	}
	if len(names) == 0 {
		return 0, nil, nil, fmt.Errorf("%s: no workloads", paths[0])
	}
	return seed, names, byWorkload, nil
}

// compareFiles compares two sides, each one or more result sets of one
// commit on one seed and host (taken alternately when there are several).
// Per (workload, end-to-end metric) it prints both medians, how much worse
// b is than a, and the bound. A host time whose run-to-run spread exceeds
// its bound on either side is unresolved, not unchanged. A resolved
// regression beyond its bound is an error, and so is a side that is
// incomplete, failed verification, or is not comparable.
func compareFiles(out io.Writer, aPaths, bPaths []string) error {
	seedA, names, a, err := loadSide(aPaths)
	if err != nil {
		return err
	}
	seedB, _, b, err := loadSide(bPaths)
	if err != nil {
		return err
	}
	if seedA != seedB {
		return fmt.Errorf("seed %d against seed %d: the simulated statistics only repeat on one seed", seedA, seedB)
	}
	fmt.Fprintf(out, "%-24s %-12s %14s %14s %10s %8s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	regressions := 0
	for _, w := range names {
		sa, sb := a[w], b[w]
		if sb == nil {
			return fmt.Errorf("%v: workload %s missing", bPaths, w)
		}
		if fa, fb := sa.failed(), sb.failed(); fb*len(sa) > fa*len(sb) {
			return fmt.Errorf("%s: %d operations failed over %d sets, %d over %d before", w, fb, len(sb), fa, len(sa))
		}
		for _, tol := range tolerances {
			ca, err := sa.column(tol.name)
			if err != nil {
				return fmt.Errorf("%v, %s: %w", aPaths, w, err)
			}
			cb, err := sb.column(tol.name)
			if err != nil {
				return fmt.Errorf("%v, %s: %w", bPaths, w, err)
			}
			va, vb := stats.Median(ca), stats.Median(cb)
			worse, unit := ratio(vb-va, va)*100, "%"
			bound := tol.bound * 100
			if tol.points {
				worse, unit, bound = vb-va, "pt", tol.bound
			}
			spread := 0.0
			if tol.host {
				spreadA, err := sa.spread(ca, tol.within)
				if err != nil {
					return fmt.Errorf("%v, %s: %w", aPaths, w, err)
				}
				spreadB, err := sb.spread(cb, tol.within)
				if err != nil {
					return fmt.Errorf("%v, %s: %w", bPaths, w, err)
				}
				spread = max(spreadA, spreadB)
			}
			verdict := "ok"
			switch {
			case math.IsInf(spread, 1):
				verdict = "unresolved (one set: run-to-run spread not measured)"
			case spread > tol.bound:
				verdict = fmt.Sprintf("unresolved (run-to-run spread %.1f%%)", spread*100)
			case worse > bound:
				verdict = "REGRESSION"
				regressions++
			case va == vb:
				verdict = "ok (identical)"
			}
			fmt.Fprintf(out, "%-24s %-12s %14.6g %14.6g %+8.2f%-2s %6.1f%-2s  %s\n",
				w, tol.name, va, vb, worse, unit, bound, unit, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond bound", regressions)
	}
	return nil
}
