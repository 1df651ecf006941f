package exp

import (
	"fmt"
	"strings"

	"repro/internal/binpack"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/vector"
	"repro/internal/workload"
)

// OracleSeries computes, for each hour of the figure window, the FFD
// offline packing of exactly the VM requests alive at that instant onto a
// fresh fleet — the static-consolidation oracle of the Related Work's
// bin-packing formulation. No online scheme can hold fewer machines than
// an offline packer with perfect knowledge (up to FFD's small optimality
// gap), so this series is the floor against which Figure 3's curves are
// judged. Each hour's packing is held to binpack.Validate, and an hour
// whose live VMs FFD cannot all place is an error naming the hour: its
// BinsUsed would be a floor below the load.
func OracleSeries(reqs []workload.Request, fleet func() *cluster.Datacenter) (*metrics.Series, error) {
	if fleet == nil {
		fleet = cluster.TableIIFleet
	}
	dc := fleet()
	bins := binpack.FleetBins(dc)
	series := metrics.NewSeries("oracle-ffd", 3600)
	for h := 0; h < WeekHours; h++ {
		t := float64(h) * 3600
		var items []binpack.Item
		for i, q := range reqs {
			if q.Submit <= t && t < q.Submit+q.RunTime {
				items = append(items, binpack.Item{
					ID:     i,
					Demand: vector.New(q.CPUCores, q.MemoryGB),
				})
			}
		}
		res := binpack.FirstFitDecreasing(items, bins)
		if err := binpack.Validate(items, bins, res); err != nil {
			return nil, fmt.Errorf("exp: oracle hour %d: %w", h, err)
		}
		if len(res.Unplaced) > 0 {
			return nil, fmt.Errorf("exp: oracle hour %d: FFD leaves %d of %d live VMs unplaced on a %d-PM fleet", h, len(res.Unplaced), len(items), len(bins))
		}
		series.Append(float64(res.BinsUsed))
	}
	return series, nil
}

// OracleReport compares each scheme's mean active servers against the
// oracle floor over the figure window.
func OracleReport(runs []*SchemeRun, oracle *metrics.Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %14s\n", "scheme", "meanPMs", "vs oracle")
	om := oracle.Mean()
	fmt.Fprintf(&b, "%-12s %10.1f %14s\n", oracle.Name, om, "1.00x (floor)")
	for _, r := range runs {
		m := truncate(r.ActivePMs, WeekHours).Mean()
		ratio := 0.0
		if om > 0 {
			ratio = m / om
		}
		fmt.Fprintf(&b, "%-12s %10.1f %13.2fx\n", r.Scheme, m, ratio)
	}
	return b.String()
}
