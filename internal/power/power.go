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
	"slices"

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
//
// The meter pays for the PMs that changed, not for the fleet. It keeps one
// fleet draw total and charges it once per advance into the total and the
// bins; each PM's own energy is charged only when the datacenter's change
// feed reports that PM, and read lazily (PMEnergy) in between.
type Meter struct {
	dc       *cluster.Datacenter
	feed     *cluster.Feed
	binWidth float64

	lastTime float64

	// bins[b] is the total energy consumed during bin b across all PMs.
	bins  []float64
	total float64

	// watts[i] is the draw PM i has held since since[i], and perPM[i] its
	// energy before since[i]. A PM the feed names is re-read at the next
	// charging Advance; every other PM's watts equal Draw (VerifyDraws).
	watts, since, perPM []float64

	// draw is the fleet's draw, the sum of watts: kept by adding each
	// change, and re-summed in ID order on the first charging advance of
	// each bin so rounding drift cannot build up. drawing counts the PMs
	// with non-zero watts; it alone decides whether an advance charges
	// anything, and draw is set to exactly 0 whenever it reaches 0.
	draw    float64
	drawing int

	// cuts is Advance's reusable split of [lastTime, now) into bins.
	cuts []binCut
}

// binCut is the part of an Advance interval that falls into one bin.
type binCut struct {
	bin int
	len float64
}

// NewMeter creates a meter over dc with the given bin width in seconds.
// A binWidth of 3600 reproduces the paper's hourly accounting. The meter
// subscribes to dc's change feed; PMs already drawing power are charged
// from time 0.
func NewMeter(dc *cluster.Datacenter, binWidth float64) *Meter {
	if binWidth <= 0 {
		panic(fmt.Sprintf("power: bin width must be positive, got %g", binWidth))
	}
	n := dc.Size()
	m := &Meter{
		dc:       dc,
		feed:     dc.Subscribe(),
		binWidth: binWidth,
		watts:    make([]float64, n),
		since:    make([]float64, n),
		perPM:    make([]float64, n),
	}
	m.requeue()
	return m
}

// requeue empties the feed and fills it with exactly the PMs whose Draw
// differs from their metered watts: the changes the meter has not charged.
func (m *Meter) requeue() {
	m.feed.Take()
	for i, p := range m.dc.PMs() {
		if math.Float64bits(Draw(p)) != math.Float64bits(m.watts[i]) {
			m.feed.Add(p.ID)
		}
	}
}

// Advance integrates energy from the last observation up to now, charging
// the elapsed interval at each PM's *current* power level. Because the
// simulator always calls Advance(now) *before* mutating any PM state or
// placement at time now, the current levels are exactly the levels that
// held throughout the interval. Advancing backwards is a programming error.
//
// The PMs changed since the last charging advance changed at lastTime:
// each is re-read, in ID order, closing its old stretch into its own
// energy and moving the fleet draw by the difference. The interval is then
// charged at the fleet draw, once.
func (m *Meter) Advance(now float64) {
	if now < m.lastTime-1e-9 {
		panic(fmt.Sprintf("power: meter advanced backwards (%g -> %g)", m.lastTime, now))
	}
	if now <= m.lastTime {
		return
	}
	m.apply()
	if m.drawing > 0 {
		// Only a charge grows the series: an all-off tail adds no bins.
		cuts := m.cut(m.lastTime, now)
		if len(cuts) > 1 || m.lastTime == float64(cuts[0].bin)*m.binWidth {
			m.resum()
		}
		// Drift can leave draw a hair below 0 only when every drawing PM
		// draws about that little; never charge a negative energy.
		w := max(m.draw, 0)
		m.ensureBin(cuts[len(cuts)-1].bin)
		m.total += w * (now - m.lastTime)
		for _, k := range cuts {
			m.bins[k.bin] += w * k.len
		}
	}
	m.lastTime = now
}

// apply re-reads the PMs the feed names, in ID order, at lastTime. The
// order makes the fleet draw's additions a function of the set, not of
// the order the bumps came in, which is what lets a restored meter
// rebuild its pending set by comparison and stay bit-exact.
func (m *Meter) apply() {
	ids := m.feed.Take()
	if len(ids) == 0 {
		return
	}
	slices.Sort(ids)
	for _, id := range ids {
		w, old := Draw(m.dc.PM(id)), m.watts[id]
		if w == old {
			continue
		}
		m.perPM[id] += old * (m.lastTime - m.since[id])
		m.since[id] = m.lastTime
		m.watts[id] = w
		m.draw += w - old
		switch {
		case old == 0:
			m.drawing++
		case w == 0:
			m.drawing--
		}
	}
	if m.drawing == 0 {
		m.draw = 0
	}
}

// resum recomputes the fleet draw exactly from watts, in ID order.
func (m *Meter) resum() {
	w := 0.0
	for _, x := range m.watts {
		w += x
	}
	m.draw = w
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

// VerifyDraws holds the meter to a cold read of the fleet: every PM the
// feed does not name must be metered at exactly Draw, bit for bit, and
// drawing must count the PMs metered above 0 W. A mismatch means a PM's
// Used or state changed without PM.bump, which the feed cannot see; the
// auditor's energy check runs this after every event.
func (m *Meter) VerifyDraws() error {
	drawing := 0
	for i, p := range m.dc.PMs() {
		if m.watts[i] != 0 {
			drawing++
		}
		if m.feed.Pending(p.ID) {
			continue
		}
		if w := Draw(p); math.Float64bits(w) != math.Float64bits(m.watts[i]) {
			return fmt.Errorf("PM %d metered at %v W but draws %v W in state %s, and the change feed does not name it (a write that skipped PM.bump)",
				p.ID, m.watts[i], w, p.State())
		}
	}
	if drawing != m.drawing {
		return fmt.Errorf("meter counts %d PMs drawing power, watts has %d", m.drawing, drawing)
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
// state; they come from the run configuration on restore. The change feed
// is not state either: what it held is re-derived from the fleet.
type MeterState struct {
	LastTime float64   `json:"last_time"`
	Bins     []float64 `json:"bins,omitempty"`
	PerPM    []float64 `json:"per_pm"`
	Total    float64   `json:"total"`
	Draw     float64   `json:"draw"`
	Watts    []float64 `json:"watts"`
	Since    []float64 `json:"since"`
}

// State captures the meter's accumulators for a checkpoint. It charges
// nothing: saving must not change the run it saves.
func (m *Meter) State() MeterState {
	return MeterState{
		LastTime: m.lastTime,
		Bins:     slices.Clone(m.bins),
		PerPM:    slices.Clone(m.perPM),
		Total:    m.total,
		Draw:     m.draw,
		Watts:    slices.Clone(m.watts),
		Since:    slices.Clone(m.since),
	}
}

// RestoreState reloads checkpointed accumulators into a freshly built
// meter over the same fleet, which must already hold the checkpoint's PM
// states and placements: the PMs whose Draw differs from their saved watts
// are the changes the saved run had not yet charged, and they go back
// into the (otherwise discarded) feed.
func (m *Meter) RestoreState(st MeterState) error {
	n := len(m.perPM)
	for _, s := range []struct {
		name string
		len  int
	}{{"per-PM accumulators", len(st.PerPM)}, {"per-PM watts", len(st.Watts)}, {"per-PM since times", len(st.Since)}} {
		if s.len != n {
			return fmt.Errorf("power: snapshot has %d %s, fleet has %d", s.len, s.name, n)
		}
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
	drawing := 0
	for i, w := range st.Watts {
		if !validEnergy(w) {
			return fmt.Errorf("power: snapshot watts[%d] draw %g is not a finite non-negative number", i, w)
		}
		if w != 0 {
			drawing++
		}
	}
	for i, t := range st.Since {
		if !(t >= 0 && t <= st.LastTime) {
			return fmt.Errorf("power: snapshot since[%d] time %g is not within [0, meter time %g]", i, t, st.LastTime)
		}
	}
	if math.IsNaN(st.Draw) || math.IsInf(st.Draw, 0) || (drawing == 0 && st.Draw != 0) {
		return fmt.Errorf("power: snapshot fleet draw %g is not finite, or not 0 with no PM drawing", st.Draw)
	}
	m.lastTime = st.LastTime
	m.bins = append(m.bins[:0], st.Bins...)
	m.perPM = append(m.perPM[:0], st.PerPM...)
	m.total = st.Total
	m.watts = append(m.watts[:0], st.Watts...)
	m.since = append(m.since[:0], st.Since...)
	m.draw, m.drawing = st.Draw, drawing
	m.requeue()
	return nil
}

func validEnergy(e float64) bool { return e >= 0 && !math.IsInf(e, 1) }

// TotalEnergy returns total energy consumed so far, in joules.
func (m *Meter) TotalEnergy() float64 { return m.total }

// PMEnergy returns the total energy of PM id in joules up to the last
// advance: its charged stretches plus the open one.
func (m *Meter) PMEnergy(id cluster.PMID) float64 {
	if id < 0 || int(id) >= len(m.perPM) {
		return 0
	}
	return m.perPM[id] + m.watts[id]*(m.lastTime-m.since[id])
}

// Bins returns a copy of the per-bin energy series in joules. The last bin
// may be partially filled.
func (m *Meter) Bins() []float64 {
	return append([]float64(nil), m.bins...)
}

// KWh converts joules to kilowatt-hours.
func KWh(joules float64) float64 { return joules / 3.6e6 }
