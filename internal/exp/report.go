package exp

import (
	"encoding/json"
	"io"

	"repro/internal/metrics"
)

// RunRecord is the JSON-serializable snapshot of one scheme run, written
// by cmd/experiments so external plotting tools can consume results
// without re-running the simulator.
type RunRecord struct {
	Scheme        string          `json:"scheme"`
	WeekEnergyKWh float64         `json:"week_energy_kwh"`
	Summary       metrics.Summary `json:"summary"`

	// HourlyActivePMs and HourlyEnergyKWh are clipped to the figure
	// window (WeekHours samples).
	HourlyActivePMs []float64 `json:"hourly_active_pms"`
	HourlyEnergyKWh []float64 `json:"hourly_energy_kwh"`

	Migrations int `json:"migrations"`
	Failures   int `json:"failures"`
}

// Record converts a run into its serializable form.
func Record(r *SchemeRun) RunRecord {
	return RunRecord{
		Scheme:          r.Scheme,
		WeekEnergyKWh:   r.WeekEnergyKWh,
		Summary:         r.Summary,
		HourlyActivePMs: truncate(r.ActivePMs, WeekHours).Values,
		HourlyEnergyKWh: truncate(r.EnergyKWh, WeekHours).Values,
		Migrations:      len(r.Moves),
		Failures:        r.Failures,
	}
}

// WriteJSON serializes runs as an indented JSON array.
func WriteJSON(w io.Writer, runs []*SchemeRun) error {
	records := make([]RunRecord, len(runs))
	for i, r := range runs {
		records[i] = Record(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
