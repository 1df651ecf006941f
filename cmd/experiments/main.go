// Command experiments regenerates every table and figure of the paper's
// evaluation (Section V), plus the ablation studies catalogued in
// DESIGN.md.
//
// Usage:
//
//	experiments [-run all|table2|fig2|fig3|fig4|fig5|ablation|google] [-seed 1] [-out DIR]
//
// Text renderings go to stdout; with -out, each figure's data is also
// written as CSV for plotting. The robustness study across seeds (E-R1)
// is cmd/sweep, and one scheme's run trace and metrics come from
// cmd/dvmpsim -trace -metrics. The reproduced numbers are recorded in
// EXPERIMENTS.md alongside the paper's, and results/ holds the output
// of the reference run; TestRunFig3CSV fails when the two drift apart.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/plot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		which  = fs.String("run", "all", "experiment: all, table2, fig2, fig3, fig4, fig5, ablation, google")
		seed   = fs.Int64("seed", 1, "workload seed")
		outDir = fs.String("out", "", "directory for CSV output (optional)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	wantsComparison := false
	switch *which {
	case "all", "fig3", "fig4", "fig5":
		wantsComparison = true
	case "table2", "fig2", "ablation", "google":
	default:
		return fmt.Errorf("unknown experiment %q", *which)
	}

	if *which == "all" || *which == "table2" {
		fmt.Fprintln(out, "=== E-T2: Table II ===")
		fmt.Fprintln(out, exp.Table2Report())
	}
	if *which == "all" || *which == "fig2" {
		fmt.Fprintln(out, "=== E-F2: Figure 2 ===")
		fmt.Fprintln(out, exp.Fig2Report(*seed))
	}

	var runs []*exp.SchemeRun
	if wantsComparison {
		fmt.Fprintf(out, "running week comparison (seed %d, schemes in parallel) ... ", *seed)
		start := time.Now()
		var err error
		runs, err = exp.Comparison(exp.DefaultOptions(*seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "done in %s\n\n", time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			path := filepath.Join(*outDir, "results.json")
			err := writeFile(path, func(w io.Writer) error { return exp.WriteJSON(w, runs) })
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "json: %s\n\n", path)
		}
	}

	emit := func(name string, table *metrics.Table, title, ylabel string) error {
		fmt.Fprintf(out, "=== %s ===\n", name)
		if *outDir == "" {
			return nil
		}
		csvPath := filepath.Join(*outDir, name+".csv")
		if err := writeFile(csvPath, table.WriteCSV); err != nil {
			return err
		}
		svgPath := filepath.Join(*outDir, name+".svg")
		chart := &plot.Chart{Title: title, XLabel: table.TimeLabel, YLabel: ylabel, Series: table.Series}
		if err := writeFile(svgPath, chart.WriteSVG); err != nil {
			return err
		}
		fmt.Fprintf(out, "csv: %s   svg: %s\n", csvPath, svgPath)
		return nil
	}

	if runs != nil {
		if *which == "all" || *which == "fig3" {
			if err := emit("fig3_hourly_active_servers", exp.Fig3Table(runs),
				"Figure 3: hourly active servers (week)", "active PMs"); err != nil {
				return err
			}
			for _, r := range runs {
				s := exp.Fig3Table([]*exp.SchemeRun{r}).Series[0]
				fmt.Fprintf(out, "%-10s mean=%.1f peak=%.0f  %s\n", r.Scheme, s.Mean(), s.Max(), s.Downsample(4).Sparkline())
			}
			fmt.Fprintln(out)
		}
		if *which == "all" || *which == "fig4" {
			if err := emit("fig4_hourly_power", exp.Fig4Table(runs),
				"Figure 4: hourly power consumption (week)", "kWh per hour"); err != nil {
				return err
			}
			for _, r := range runs {
				fmt.Fprintf(out, "%-10s week energy = %.1f kWh (mean %.2f kW)\n",
					r.Scheme, r.WeekEnergyKWh, r.WeekEnergyKWh/exp.WeekHours)
			}
			fmt.Fprintln(out)
		}
		if *which == "all" || *which == "fig5" {
			if err := emit("fig5_daily_power", exp.Fig5Table(runs),
				"Figure 5: daily power consumption", "kWh per day"); err != nil {
				return err
			}
			if err := exp.Fig5Table(runs).WriteText(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if *which == "all" {
			fmt.Fprintln(out, "=== headline comparison (figure window) ===")
			if err := metrics.WriteSummaries(out, exp.SummaryRows(runs)); err != nil {
				return err
			}
			fmt.Fprintln(out)
			fmt.Fprint(out, exp.SavingsReport(runs))
			fmt.Fprintln(out)

			fmt.Fprintln(out, "=== QoS cross-check (Erlang-C capacity model) ===")
			_, reqs := exp.WeekTrace(*seed)
			for _, r := range runs {
				if r.Scheme == "dynamic" {
					fmt.Fprint(out, exp.AnalyzeQoS(r, reqs, nil).String())
				}
			}
			fmt.Fprintln(out)
		}
	}

	if *which == "all" || *which == "ablation" {
		opts := exp.DefaultOptions(*seed)
		_, opts.Trace = exp.WeekTrace(*seed)
		if err := ablation(out, opts, runs); err != nil {
			return err
		}
	}

	if *which == "google" {
		fmt.Fprintln(out, "=== E-R2: generality on a Google-like cloud workload ===")
		gruns, err := exp.GeneralityStudy(exp.DefaultOptions(*seed))
		if err != nil {
			return err
		}
		fmt.Fprint(out, exp.AblationReport("short-task cloud trace (see EXPERIMENTS.md for the T-mismatch analysis):", gruns))
	}

	return nil
}

// ablation prints the ablation studies (E-A1a–g) over opts' trace. trio is
// the headline first-fit, best-fit and dynamic runs of that trace, which
// E-A1e and E-A1g show again; nil runs them.
func ablation(out io.Writer, opts exp.Options, trio []*exp.SchemeRun) error {
	if trio == nil {
		var err error
		if trio, err = exp.Comparison(opts); err != nil {
			return err
		}
	}

	fmt.Fprintln(out, "=== E-A1a: factor ablation ===")
	fruns, err := exp.AblateFactors(opts)
	if err != nil {
		return err
	}
	fmt.Fprint(out, exp.AblationReport("drop one probability factor at a time:", fruns))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "=== E-A1b: MIG_threshold sweep ===")
	truns, err := exp.AblateThreshold(opts, []float64{1.01, 1.05, 1.2, 1.5, 2})
	if err != nil {
		return err
	}
	fmt.Fprint(out, exp.AblationReport("migration aggressiveness (paper: 1.05):", truns))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "=== E-A1c: MIG_round sweep ===")
	rruns, err := exp.AblateRounds(opts, []int{1, 3, 10, 30})
	if err != nil {
		return err
	}
	fmt.Fprint(out, exp.AblationReport("migration budget per pass (paper: no explicit value, default 10):", rruns))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "=== E-A1d: spare-server alpha sweep ===")
	aruns, err := exp.AblateSpareAlpha(opts, []float64{0.01, 0.05, 0.2})
	if err != nil {
		return err
	}
	fmt.Fprint(out, exp.AblationReport("QoS tail bound (paper: 0.05):", aruns))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "=== E-A1e: extended baseline comparison ===")
	extOpts := opts
	extOpts.Schemes = []string{"worst-fit", "random", "threshold"}
	extra, err := exp.Comparison(extOpts)
	if err != nil {
		return err
	}
	eruns := []*exp.SchemeRun{trio[0], trio[1], extra[0], extra[1], extra[2], trio[2]}
	fmt.Fprint(out, exp.AblationReport("all implemented schemes (threshold = watermark baseline a la [21]):", eruns))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "=== E-A1f: migration model (instant vs timed pre-copy) ===")
	mruns, err := exp.AblateMigrationModel(opts)
	if err != nil {
		return err
	}
	fmt.Fprint(out, exp.AblationReport("instant (paper's model) vs timed double-occupancy migration:", mruns))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "=== E-A1g: offline packing oracle (FFD floor) ===")
	oracle, err := exp.OracleSeries(opts.Trace, nil)
	if err != nil {
		return err
	}
	fmt.Fprint(out, exp.OracleReport(trio, oracle))
	return nil
}

// writeFile creates the file at path, lets write fill it, and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
