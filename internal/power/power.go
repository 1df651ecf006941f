// Package power models electrical power draw and energy accounting for the
// simulated data center.
//
// Table II of the paper gives each PM class an active and an idle power
// draw. We use the standard linear interpolation model between the two:
//
//	P(u) = P_idle + (P_active - P_idle) * u
//
// where u is the PM's joint resource utilization, plus full active draw
// during boot/shutdown transitions (the ON/OFF overhead window) and zero
// draw while off. Energy is integrated piecewise-constantly: the meter is
// advanced to the current simulation time before any state change, so each
// interval is charged at the power level that actually held during it.
package power

import (
	"fmt"
	"math"

	"repro/internal/cluster"
)

// Draw returns the instantaneous power draw of PM p in watts under the
// linear model.
func Draw(p *cluster.PM) float64 {
	switch p.State() {
	case cluster.PMOff, cluster.PMFailed:
		return 0
	case cluster.PMBooting, cluster.PMShuttingDown:
		// Power transitions draw full active power for the whole
		// ON/OFF overhead window; this charges the energy cost of
		// cycling a machine and is what makes needless power cycling
		// unattractive to the placement scheme.
		return p.Class.ActivePower
	default:
		u := p.Utilization()
		return p.Class.IdlePower + (p.Class.ActivePower-p.Class.IdlePower)*u
	}
}

// Meter integrates per-PM energy over simulated time and bins it into
// fixed-width intervals (hours in the paper's figures). All energies are in
// joules (watt-seconds); callers convert to kWh for reporting.
type Meter struct {
	dc       *cluster.Datacenter
	binWidth float64

	lastTime float64

	// bins[b] is the total energy consumed during bin b across all PMs.
	bins []float64
	// perPM[i] is the total energy of PM i over the whole run.
	perPM []float64
	total float64

	// draws[i] is PM i's Draw, valid while the PM's Version equals the one
	// it was computed at: Draw reads only State, Class and Used, the class
	// never changes, and every write to State or Used bumps Version.
	// Allocated by the first Advance that finds a powered PM.
	draws []cachedDraw

	// cuts is Advance's reusable split of [lastTime, now) into bins.
	cuts []binCut
}

type cachedDraw struct {
	ver   uint64
	watts float64
}

// binCut is the part of an Advance interval that falls into one bin.
type binCut struct {
	bin int
	len float64
}

// NewMeter creates a meter over dc with the given bin width in seconds.
// A binWidth of 3600 reproduces the paper's hourly accounting.
func NewMeter(dc *cluster.Datacenter, binWidth float64) *Meter {
	if binWidth <= 0 {
		panic(fmt.Sprintf("power: bin width must be positive, got %g", binWidth))
	}
	return &Meter{
		dc:       dc,
		binWidth: binWidth,
		perPM:    make([]float64, dc.Size()),
	}
}

// Advance integrates energy from the last observation up to now, charging
// the elapsed interval at each PM's *current* power level. Because the
// simulator always calls Advance(now) *before* mutating any PM state or
// placement at time now, the current levels are exactly the levels that
// held throughout the interval. Advancing backwards is a programming error.
//
// Each PM is charged e = Draw·dt and each bin it overlaps gets
// (e/dt)·(part of dt in that bin), PM by PM in ID order: the interval is
// cut into bins once per call, not once per PM, and draws come from the
// cache, but the floating-point operations and their order are those of
// integrating every PM independently, so the ledger is bit-identical to it.
func (m *Meter) Advance(now float64) {
	if now < m.lastTime-1e-9 {
		panic(fmt.Sprintf("power: meter advanced backwards (%g -> %g)", m.lastTime, now))
	}
	if now <= m.lastTime {
		return
	}
	dt := now - m.lastTime
	cuts := m.cut(m.lastTime, now)
	one := len(cuts) == 1
	// total, and the bin while the interval sits in a single one, are
	// summed in locals and stored once: the same additions in the same
	// order, without a store and reload per PM.
	total, acc := m.total, 0.0
	charged := false
	for i, p := range m.dc.PMs() {
		if st := p.State(); st == cluster.PMOff || st == cluster.PMFailed {
			continue
		}
		if m.draws == nil {
			m.draws = make([]cachedDraw, len(m.perPM))
		}
		c := &m.draws[i]
		if c.ver != p.Version() {
			*c = cachedDraw{ver: p.Version(), watts: Draw(p)}
		}
		e := c.watts * dt
		if e == 0 {
			continue
		}
		if !charged {
			// Only a charge grows the series: an all-off tail adds no bins.
			charged = true
			m.ensureBin(cuts[len(cuts)-1].bin)
			acc = m.bins[cuts[0].bin]
		}
		m.perPM[i] += e
		total += e
		rate := e / dt
		if one {
			acc += rate * cuts[0].len
			continue
		}
		for _, k := range cuts {
			m.bins[k.bin] += rate * k.len
		}
	}
	if charged && one {
		m.bins[cuts[0].bin] = acc
	}
	m.total = total
	m.lastTime = now
}

// cut splits [t0, t1) at bin boundaries, t0 < t1, into m.cuts.
func (m *Meter) cut(t0, t1 float64) []binCut {
	cuts := m.cuts[:0]
	for t := t0; t < t1; {
		bin := int(t / m.binWidth)
		end := math.Min(float64(bin+1)*m.binWidth, t1)
		cuts = append(cuts, binCut{bin: bin, len: end - t})
		t = end
	}
	m.cuts = cuts
	return cuts
}

// VerifyDraws checks every cached draw whose Version is still current
// against Draw, bit for bit. A mismatch means PM.Used changed without a
// Version bump, which the cache cannot see; the auditor's energy check
// runs this after every event.
func (m *Meter) VerifyDraws() error {
	if m.draws == nil {
		return nil
	}
	for i, p := range m.dc.PMs() {
		c := m.draws[i]
		if c.ver != p.Version() {
			continue
		}
		if w := Draw(p); math.Float64bits(w) != math.Float64bits(c.watts) {
			return fmt.Errorf("PM %d cached draw %v W != draw %v W at version %d, state %s (used changed without a version bump)",
				p.ID, c.watts, w, c.ver, p.State())
		}
	}
	return nil
}

func (m *Meter) ensureBin(b int) {
	for len(m.bins) <= b {
		m.bins = append(m.bins, 0)
	}
}

// MeterState is the serializable accumulator state of a Meter. The
// datacenter reference and bin width are reconstruction parameters, not
// state; they come from the run configuration on restore.
type MeterState struct {
	LastTime float64   `json:"last_time"`
	Bins     []float64 `json:"bins,omitempty"`
	PerPM    []float64 `json:"per_pm"`
	Total    float64   `json:"total"`
}

// State captures the meter's accumulators for a checkpoint.
func (m *Meter) State() MeterState {
	return MeterState{
		LastTime: m.lastTime,
		Bins:     append([]float64(nil), m.bins...),
		PerPM:    append([]float64(nil), m.perPM...),
		Total:    m.total,
	}
}

// RestoreState reloads checkpointed accumulators into a freshly built
// meter over the same fleet.
func (m *Meter) RestoreState(st MeterState) error {
	if len(st.PerPM) != len(m.perPM) {
		return fmt.Errorf("power: snapshot has %d per-PM accumulators, fleet has %d", len(st.PerPM), len(m.perPM))
	}
	if st.LastTime < 0 {
		return fmt.Errorf("power: negative meter time %g", st.LastTime)
	}
	for i, e := range st.PerPM {
		if !validEnergy(e) {
			return fmt.Errorf("power: snapshot per_pm[%d] energy %g is not a finite non-negative number", i, e)
		}
	}
	for i, e := range st.Bins {
		if !validEnergy(e) {
			return fmt.Errorf("power: snapshot bins[%d] energy %g is not a finite non-negative number", i, e)
		}
	}
	if !validEnergy(st.Total) {
		return fmt.Errorf("power: snapshot total energy %g is not a finite non-negative number", st.Total)
	}
	m.lastTime = st.LastTime
	m.bins = append(m.bins[:0], st.Bins...)
	m.perPM = append(m.perPM[:0], st.PerPM...)
	m.total = st.Total
	return nil
}

func validEnergy(e float64) bool { return e >= 0 && !math.IsInf(e, 1) }

// TotalEnergy returns total energy consumed so far, in joules.
func (m *Meter) TotalEnergy() float64 { return m.total }

// PMEnergy returns the total energy of PM id in joules.
func (m *Meter) PMEnergy(id cluster.PMID) float64 {
	if id < 0 || int(id) >= len(m.perPM) {
		return 0
	}
	return m.perPM[id]
}

// Bins returns a copy of the per-bin energy series in joules. The last bin
// may be partially filled.
func (m *Meter) Bins() []float64 {
	return append([]float64(nil), m.bins...)
}

// BinWidth returns the bin width in seconds.
func (m *Meter) BinWidth() float64 { return m.binWidth }

// KWh converts joules to kilowatt-hours.
func KWh(joules float64) float64 { return joules / 3.6e6 }

// Joules converts kilowatt-hours to joules.
func Joules(kwh float64) float64 { return kwh * 3.6e6 }

// Rebin aggregates a fine-grained energy series into coarser bins of factor
// n (e.g. 24 hourly bins -> daily). A trailing partial group is kept.
func Rebin(series []float64, n int) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("power: rebin factor must be positive, got %d", n))
	}
	var out []float64
	for i, x := range series {
		if i%n == 0 {
			out = append(out, 0)
		}
		out[len(out)-1] += x
	}
	return out
}
