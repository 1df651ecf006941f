package exp

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// RobustnessStudy reruns the scheme comparison over n different workload
// seeds (1..n) and returns the replication sweep's report. It answers the
// question single-seed figures cannot: does the dynamic scheme's win
// survive workload resampling? base.Trace is ignored — each seed
// generates its own workload (base.TraceGen, default WeekTrace).
func RobustnessStudy(n int, base Options) (*SweepReport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("exp: robustness study needs at least one seed")
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	base.Trace = nil
	return RunSweep(SweepOptions{Base: base, Schemes: base.Schemes, Seeds: seeds, Observe: base.Observe})
}

// GoogleTrace generates, filters, and splits a week of the Google-like
// cloud workload preset, the alternate trace for the E-R2 generality
// study.
func GoogleTrace(seed int64) []workload.Request {
	jobs := workload.MustGenerate(workload.GoogleLikeConfig(seed))
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	return workload.ToRequests(jobs)
}

// GeneralityStudy runs the scheme comparison on the Google-like workload:
// same fleet, same schemes, a completely different trace character.
func GeneralityStudy(opts Options) ([]*SchemeRun, error) {
	opts.Trace = GoogleTrace(opts.Seed)
	return Comparison(opts)
}

// RobustnessReport renders per-scheme mean +/- stddev across seeds, plus
// the dynamic scheme's per-seed win count against each baseline.
func RobustnessReport(rep *SweepReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %18s %14s %10s\n", "scheme", "week kWh (mean±sd)", "meanPMs", "queued%")
	for _, a := range rep.Aggregates {
		fmt.Fprintf(&b, "%-12s %10.1f ± %5.1f %14.1f %9.2f%%\n",
			a.Scheme, a.WeekEnergyKWh.Mean, a.WeekEnergyKWh.StdDev,
			a.MeanActivePMs.Mean, a.QueuedFraction.Mean*100)
	}
	// Runs holds one block of len(Seeds) runs per scheme, in seed order.
	n := len(rep.Seeds)
	block := func(si int) []SweepRun { return rep.Runs[si*n : (si+1)*n] }
	dyn := -1
	for si, scheme := range rep.Schemes {
		if scheme == "dynamic" {
			dyn = si
			break
		}
	}
	if dyn < 0 {
		return b.String()
	}
	for si, scheme := range rep.Schemes {
		if si == dyn {
			continue
		}
		wins := 0
		for i, r := range block(si) {
			if block(dyn)[i].WeekEnergyKWh < r.WeekEnergyKWh {
				wins++
			}
		}
		fmt.Fprintf(&b, "dynamic beats %-10s on %d/%d seeds\n", scheme, wins, n)
	}
	return b.String()
}
