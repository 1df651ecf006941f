package power

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/vector"
)

func smallDC(t *testing.T) *cluster.Datacenter {
	if t != nil {
		t.Helper()
	}
	fast := cluster.FastClass
	slow := cluster.SlowClass
	return cluster.MustNew(cluster.Config{
		RMin: cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{
			{Class: &fast, Count: 2},
			{Class: &slow, Count: 2},
		},
	})
}

func TestDrawStates(t *testing.T) {
	d := smallDC(t)
	p := d.PM(0) // fast: active 400, idle 240

	p.SetState(cluster.PMOff)
	if got := Draw(p); got != 0 {
		t.Errorf("off draw = %g", got)
	}
	p.SetState(cluster.PMFailed)
	if got := Draw(p); got != 0 {
		t.Errorf("failed draw = %g", got)
	}
	p.SetState(cluster.PMBooting)
	if got := Draw(p); got != 400 {
		t.Errorf("booting draw = %g, want 400", got)
	}
	p.SetState(cluster.PMShuttingDown)
	if got := Draw(p); got != 400 {
		t.Errorf("shutdown draw = %g, want 400", got)
	}
	p.SetState(cluster.PMOn)
	if got := Draw(p); got != 240 {
		t.Errorf("idle-on draw = %g, want 240", got)
	}
}

func TestDrawLinearInUtilization(t *testing.T) {
	d := smallDC(t)
	p := d.PM(0)
	p.SetState(cluster.PMOn)
	// Host a VM using half of each resource: u = 0.5*0.5 = 0.25.
	vm := cluster.NewVM(1, vector.New(4, 4), 100, 100, 0)
	if err := p.Host(vm); err != nil {
		t.Fatal(err)
	}
	want := 240 + (400-240)*0.25
	if got := Draw(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("draw = %g, want %g", got, want)
	}
}

func TestMeterIntegration(t *testing.T) {
	d := smallDC(t)
	m := NewMeter(d, 3600)
	p := d.PM(0)

	// Turn on at t=0; the interval [0, 3600) is charged at the on level.
	p.SetState(cluster.PMOn)
	m.Advance(3600) // one idle hour at 240 W
	want := 240.0 * 3600
	if got := m.TotalEnergy(); math.Abs(got-want) > 1e-6 {
		t.Errorf("energy after 1h idle = %g, want %g", got, want)
	}
	if got := m.PMEnergy(0); math.Abs(got-want) > 1e-6 {
		t.Errorf("PM energy = %g, want %g", got, want)
	}
	if got := m.PMEnergy(1); got != 0 {
		t.Errorf("off PM accrued energy %g", got)
	}
}

func TestMeterChargesOldLevel(t *testing.T) {
	d := smallDC(t)
	m := NewMeter(d, 3600)
	p := d.PM(0)
	p.SetState(cluster.PMOn)
	m.Advance(0)

	// At t=1800 the PM goes off; the first half hour must be charged at
	// 240 W, the second at 0.
	m.Advance(1800)
	p.SetState(cluster.PMOff)
	m.Advance(3600)

	want := 240.0 * 1800
	if got := m.TotalEnergy(); math.Abs(got-want) > 1e-6 {
		t.Errorf("energy = %g, want %g", got, want)
	}
}

func TestMeterBinning(t *testing.T) {
	d := smallDC(t)
	m := NewMeter(d, 3600)
	p := d.PM(0)
	p.SetState(cluster.PMOn)
	m.Advance(0)

	// 2.5 hours at 240 W: bins [864000, 864000, 432000].
	m.Advance(2.5 * 3600)
	bins := m.Bins()
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	for i, want := range []float64{864000, 864000, 432000} {
		if math.Abs(bins[i]-want) > 1e-6 {
			t.Errorf("bin %d = %g, want %g", i, bins[i], want)
		}
	}
	// Bin energy sums to total.
	var sum float64
	for _, b := range bins {
		sum += b
	}
	if math.Abs(sum-m.TotalEnergy()) > 1e-6 {
		t.Errorf("bin sum %g != total %g", sum, m.TotalEnergy())
	}
}

func TestMeterSpanningManyBins(t *testing.T) {
	d := smallDC(t)
	m := NewMeter(d, 10)
	p := d.PM(0)
	p.SetState(cluster.PMOn)
	m.Advance(0)
	m.Advance(100) // 10 bins of 10 s at 240 W
	bins := m.Bins()
	if len(bins) != 10 {
		t.Fatalf("bins = %d, want 10", len(bins))
	}
	for i, b := range bins {
		if math.Abs(b-2400) > 1e-9 {
			t.Errorf("bin %d = %g, want 2400", i, b)
		}
	}
}

func TestMeterBackwardsPanics(t *testing.T) {
	d := smallDC(t)
	m := NewMeter(d, 3600)
	m.Advance(100)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on backwards advance")
		}
	}()
	m.Advance(50)
}

func TestNewMeterPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMeter(smallDC(t), 0)
}

func TestPMEnergyOutOfRange(t *testing.T) {
	m := NewMeter(smallDC(t), 3600)
	if m.PMEnergy(-1) != 0 || m.PMEnergy(100) != 0 {
		t.Error("out-of-range PMEnergy should be 0")
	}
}

func TestAdvanceSameInstantNoCharge(t *testing.T) {
	d := smallDC(t)
	m := NewMeter(d, 3600)
	d.PM(0).SetState(cluster.PMOn)
	m.Advance(10)
	m.Advance(10)
	if got := m.TotalEnergy(); math.Abs(got-2400) > 1e-9 {
		t.Errorf("energy = %g, want 2400 (no double charge)", got)
	}
}

func TestKWhConversions(t *testing.T) {
	if got := KWh(3.6e6); got != 1 {
		t.Errorf("KWh(3.6e6) = %g", got)
	}
}

// Property: meter total equals the sum of per-PM energies and bins.
func TestQuickMeterConservation(t *testing.T) {
	f := func(steps []uint8) bool {
		d := smallDC(nil)
		m := NewMeter(d, 500)
		now := 0.0
		for i, s := range steps {
			now += float64(s%100) + 1
			m.Advance(now)
			// Toggle a PM state each step.
			p := d.PM(cluster.PMID(i % d.Size()))
			if p.State() == cluster.PMOff {
				p.SetState(cluster.PMOn)
			} else {
				p.SetState(cluster.PMOff)
			}
		}
		m.Advance(now + 10)
		var perPM, binSum float64
		for i := 0; i < d.Size(); i++ {
			perPM += m.PMEnergy(cluster.PMID(i))
		}
		for _, b := range m.Bins() {
			binSum += b
		}
		tot := m.TotalEnergy()
		return math.Abs(perPM-tot) < 1e-6*(1+tot) && math.Abs(binSum-tot) < 1e-6*(1+tot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refMeter is the meter as it was before the draw cache: every Advance
// recomputes each PM's Draw and re-splits the interval into bins for each
// PM (spread). Advance, spread and ensureBin are kept verbatim as the
// reference Meter must match bit for bit.
type refMeter struct {
	dc       *cluster.Datacenter
	binWidth float64
	lastTime float64
	bins     []float64
	perPM    []float64
	total    float64
}

func newRefMeter(dc *cluster.Datacenter, binWidth float64) *refMeter {
	return &refMeter{dc: dc, binWidth: binWidth, perPM: make([]float64, dc.Size())}
}

func (m *refMeter) Advance(now float64) {
	if now < m.lastTime-1e-9 {
		panic(fmt.Sprintf("power: meter advanced backwards (%g -> %g)", m.lastTime, now))
	}
	if now <= m.lastTime {
		return
	}
	dt := now - m.lastTime
	for i, p := range m.dc.PMs() {
		e := Draw(p) * dt
		if e != 0 {
			m.perPM[i] += e
			m.total += e
			m.spread(m.lastTime, now, e)
		}
	}
	m.lastTime = now
}

func (m *refMeter) spread(t0, t1, e float64) {
	if t1 <= t0 {
		return
	}
	rate := e / (t1 - t0)
	for t := t0; t < t1; {
		bin := int(t / m.binWidth)
		binEnd := float64(bin+1) * m.binWidth
		end := math.Min(binEnd, t1)
		m.ensureBin(bin)
		m.bins[bin] += rate * (end - t)
		t = end
	}
}

func (m *refMeter) ensureBin(b int) {
	for len(m.bins) <= b {
		m.bins = append(m.bins, 0)
	}
}

// relTol bounds the meter's distance from the reference, per PM, per bin
// and in total. The meter sums the fleet draw before multiplying by the
// interval, and charges each PM one product per stretch of constant draw
// instead of one per advance, so the two round differently.
const relTol = 1e-11

// sameLedger reports the first difference between m and the reference
// beyond relTol (a reference 0 must be met exactly), and the largest
// relative difference it saw. The number of bins must match exactly.
func sameLedger(m *Meter, ref *refMeter) (float64, error) {
	worst := 0.0
	near := func(got, want float64) bool {
		if got == want {
			return true
		}
		d := math.Abs(got-want) / math.Abs(want)
		worst = max(worst, d)
		return d <= relTol
	}
	bins := m.Bins()
	if len(bins) != len(ref.bins) {
		return worst, fmt.Errorf("%d bins, reference %d", len(bins), len(ref.bins))
	}
	for b := range bins {
		if !near(bins[b], ref.bins[b]) {
			return worst, fmt.Errorf("bin %d = %v, reference %v", b, bins[b], ref.bins[b])
		}
	}
	for i, e := range ref.perPM {
		if got := m.PMEnergy(cluster.PMID(i)); !near(got, e) {
			return worst, fmt.Errorf("PM %d energy %v, reference %v", i, got, e)
		}
	}
	if !near(m.TotalEnergy(), ref.total) {
		return worst, fmt.Errorf("total %v, reference %v", m.TotalEnergy(), ref.total)
	}
	return worst, nil
}

// exactParts checks what the meter keeps exactly: no negative energy
// anywhere, a zero fleet draw whenever no PM draws, and drawing equal to
// the count of PMs metered above 0 W.
func exactParts(m *Meter) error {
	for b, e := range m.bins {
		if !(e >= 0) {
			return fmt.Errorf("bin %d energy %v", b, e)
		}
	}
	drawing := 0
	for i := range m.perPM {
		if e := m.PMEnergy(cluster.PMID(i)); !(e >= 0) {
			return fmt.Errorf("PM %d energy %v", i, e)
		}
		if m.watts[i] != 0 {
			drawing++
		}
	}
	if !(m.total >= 0) {
		return fmt.Errorf("total energy %v", m.total)
	}
	if drawing != m.drawing || (drawing == 0 && m.draw != 0) {
		return fmt.Errorf("drawing %d (watts say %d), fleet draw %v", m.drawing, drawing, m.draw)
	}
	return nil
}

// idSum is the fleet draw re-summed in ID order, the value the meter must
// hold bit for bit right after each re-sum.
func idSum(m *Meter) float64 {
	w := 0.0
	for _, x := range m.watts {
		w += x
	}
	return w
}

// mixedDC is three PM classes: Table II's fast and slow, and a class that
// draws nothing when idle, so an on-but-empty PM of it charges no energy.
func mixedDC() *cluster.Datacenter {
	fast, slow := cluster.FastClass, cluster.SlowClass
	cold := cluster.SlowClass
	cold.Name, cold.IdlePower = "zero-idle", 0
	return cluster.MustNew(cluster.Config{
		RMin: cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{
			{Class: &fast, Count: 3},
			{Class: &slow, Count: 3},
			{Class: &cold, Count: 2},
		},
	})
}

// meterPair drives a Meter and the reference over one fleet and compares
// them after every step. worst is the largest relative difference seen.
type meterPair struct {
	t     *testing.T
	dc    *cluster.Datacenter
	m     *Meter
	ref   *refMeter
	now   float64
	vmSeq cluster.VMID
	worst float64
}

func newMeterPair(t *testing.T, binWidth float64) *meterPair {
	dc := mixedDC()
	return &meterPair{t: t, dc: dc, m: NewMeter(dc, binWidth), ref: newRefMeter(dc, binWidth)}
}

func (p *meterPair) check(step string) bool {
	p.t.Helper()
	worst, err := sameLedger(p.m, p.ref)
	p.worst = max(p.worst, worst)
	if err == nil {
		err = exactParts(p.m)
	}
	if err == nil {
		err = p.m.VerifyDraws()
	}
	if err != nil {
		p.t.Errorf("after %s (t=%g): %v", step, p.now, err)
		return false
	}
	return true
}

func (p *meterPair) advance(to float64) bool {
	p.t.Helper()
	from := p.m.lastTime
	p.now = to
	p.m.Advance(to)
	p.ref.Advance(to)
	// The first charging advance of a bin re-sums the fleet draw.
	if to > from && p.m.drawing > 0 {
		if c := p.m.cuts; len(c) > 1 || from == float64(c[0].bin)*p.m.binWidth {
			if w := idSum(p.m); p.m.draw != w {
				p.t.Errorf("advance %g -> %g re-summed the fleet draw to %v, ID-order sum %v", from, to, p.m.draw, w)
				return false
			}
		}
	}
	return p.check(fmt.Sprintf("advance to %g", to))
}

func (p *meterPair) state(id int, st cluster.PMState) {
	p.dc.PM(cluster.PMID(id)).SetState(st)
}

// host places a VM of demand (cpu, mem) on PM id when it fits.
func (p *meterPair) host(id int, cpu, mem float64) {
	pm := p.dc.PM(cluster.PMID(id))
	p.vmSeq++
	vm := cluster.NewVM(p.vmSeq, vector.New(cpu, mem), 100, 100, p.now)
	if pm.CanHost(vm.Demand) {
		if err := pm.Host(vm); err != nil {
			p.t.Fatal(err)
		}
	}
}

// evict removes PM id's lowest-ID VM, if it hosts any.
func (p *meterPair) evict(id int) {
	pm := p.dc.PM(cluster.PMID(id))
	if vms := pm.VMs(); len(vms) > 0 {
		if err := pm.Evict(vms[0]); err != nil {
			p.t.Fatal(err)
		}
	}
}

func TestMeterMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		binWidth float64
		run      func(p *meterPair)
	}{
		{"same-instant advance", 3600, func(p *meterPair) {
			p.state(0, cluster.PMOn)
			p.advance(10)
			p.advance(10)
			p.host(0, 2, 2)
			p.advance(10)
			p.advance(25)
			p.advance(25)
		}},
		{"span of many bins", 10, func(p *meterPair) {
			p.state(0, cluster.PMOn)
			p.state(3, cluster.PMBooting)
			p.host(0, 3, 1)
			p.advance(3.5)
			p.advance(1003.25)
			p.state(5, cluster.PMOn)
			p.host(5, 1, 1)
			p.advance(1999)
		}},
		{"bin width smaller than dt", 2.5, func(p *meterPair) {
			p.state(1, cluster.PMOn)
			p.host(1, 4, 4)
			p.advance(0.75)
			p.advance(17.3)
			p.advance(17.5)
			p.advance(40)
		}},
		{"all-off tail", 100, func(p *meterPair) {
			// Loads whose draws do not cancel exactly: adding and then
			// subtracting them leaves the fleet draw 2.8e-14 off 0.
			p.state(0, cluster.PMOn)
			p.state(4, cluster.PMOn)
			p.host(0, 0.9, 0.9)
			p.host(4, 0.9, 0.35)
			p.advance(150)
			p.state(0, cluster.PMOff)
			p.state(4, cluster.PMOff)
			p.advance(2000) // no PM draws: the series must not grow
			p.advance(2001)
		}},
		{"class with zero idle power", 100, func(p *meterPair) {
			p.state(6, cluster.PMOn)
			p.advance(450) // on but drawing nothing: no energy, no bins
			p.host(6, 2, 2)
			p.advance(460)
			p.evict(6)
			p.advance(900)
		}},
		{"failed and shutting-down PMs", 3600, func(p *meterPair) {
			p.state(0, cluster.PMOn)
			p.state(2, cluster.PMOn)
			p.host(0, 1, 1)
			p.host(2, 4, 2)
			p.advance(100)
			p.state(0, cluster.PMFailed)
			p.state(2, cluster.PMShuttingDown)
			p.advance(200)
			p.state(0, cluster.PMOff)
			p.state(2, cluster.PMOff)
			p.advance(300)
		}},
		{"booting PMs draw active power", 3600, func(p *meterPair) {
			p.state(1, cluster.PMBooting)
			p.state(7, cluster.PMBooting)
			p.advance(60)
			p.state(1, cluster.PMOn)
			p.advance(120)
		}},
		{"occupancy change at one state", 3600, func(p *meterPair) {
			p.state(3, cluster.PMOn)
			p.advance(5)
			p.host(3, 1, 1)
			p.advance(9)
			p.host(3, 2, 1)
			p.advance(13)
			if err := p.dc.PM(3).Reserve(vector.New(1, 1)); err != nil {
				p.t.Fatal(err)
			}
			p.advance(17)
			p.dc.PM(3).Release(vector.New(1, 1))
			p.evict(3)
			p.advance(21)
		}},
		{"state change at one occupancy", 3600, func(p *meterPair) {
			p.state(0, cluster.PMOn)
			p.host(0, 4, 4)
			p.advance(30)
			p.state(0, cluster.PMShuttingDown)
			p.advance(60)
			p.state(0, cluster.PMOn)
			p.advance(90)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newMeterPair(t, tc.binWidth)
			p.check("construction")
			tc.run(p)
			t.Logf("largest relative difference from the reference: %.3g", p.worst)
		})
	}
}

// TestQuickMeterMatchesReference applies random host, evict, reserve,
// release, power-state and advance steps to a mixed-class fleet and holds
// the meter to the reference after every one.
func TestQuickMeterMatchesReference(t *testing.T) {
	widths := []float64{3600, 100, 10, 2.5}
	states := []cluster.PMState{cluster.PMOff, cluster.PMBooting, cluster.PMOn, cluster.PMShuttingDown, cluster.PMFailed}
	worst := 0.0
	f := func(width uint8, ops []uint16) bool {
		p := newMeterPair(t, widths[int(width)%len(widths)])
		defer func() { worst = max(worst, p.worst) }()
		n := p.dc.Size()
		for _, op := range ops {
			id, arg := int(op>>3)%n, int(op>>6)
			switch op & 7 {
			case 0:
				if !p.advance(p.now + float64(arg%40)*0.5) {
					return false
				}
			case 1:
				if !p.advance(p.now + float64(arg)*7.3) {
					return false
				}
			case 2:
				if !p.advance(math.Ceil(p.now/p.m.binWidth+1e-9) * p.m.binWidth) {
					return false
				}
			case 3:
				p.host(id, float64(1+arg%3)*0.9, float64(1+arg%4)*0.35)
			case 4:
				p.evict(id)
			case 5:
				pm := p.dc.PM(cluster.PMID(id))
				if d := vector.New(1, 0.5); d.Fits(pm.Used, pm.Class.Capacity) {
					if err := pm.Reserve(d); err != nil {
						t.Fatal(err)
					}
				}
			case 6:
				pm := p.dc.PM(cluster.PMID(id))
				if r := pm.Reserved(); !r.IsZero() {
					pm.Release(r)
				}
			case 7:
				p.state(id, states[arg%len(states)])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	t.Logf("largest relative difference from the reference: %.3g", worst)
}

// churnFleet is the shape of a large static run's fleet at a typical
// instant: n Table II PMs of which 37.5 % draw power, nearly all on at
// assorted utilizations and a few booting or shutting down.
func churnFleet(n int) *cluster.Datacenter {
	d := cluster.TableIIFleetScaled(n)
	for i, p := range d.PMs() {
		switch {
		case i%8 >= 3:
			continue
		case i%97 == 0:
			p.SetState(cluster.PMBooting)
		case i%89 == 0:
			p.SetState(cluster.PMShuttingDown)
		default:
			p.SetState(cluster.PMOn)
			vm := cluster.NewVM(cluster.VMID(i+1), vector.New(1, float64(1+i%3)), 100, 100, 0)
			if err := p.Host(vm); err != nil {
				panic(err)
			}
		}
	}
	return d
}

// churn bumps one on PM per call, cycling through the fleet: a
// reservation taken on one call is released on the next.
type churn struct {
	on   []*cluster.PM
	next int
	held *cluster.PM
}

func newChurn(d *cluster.Datacenter) *churn {
	c := &churn{}
	for _, p := range d.PMs() {
		if p.State() == cluster.PMOn {
			c.on = append(c.on, p)
		}
	}
	return c
}

var churnDemand = vector.New(0.5, 0.25)

func (c *churn) step() {
	if c.held != nil {
		c.held.Release(churnDemand)
		c.held = nil
		return
	}
	p := c.on[c.next%len(c.on)]
	c.next++
	if p.Reserve(churnDemand) == nil {
		c.held = p
	}
}

// TestMeterAdvanceAllocFree: once warm, an Advance inside the current bin
// allocates nothing, with occupancy and power-state churn between calls.
func TestMeterAdvanceAllocFree(t *testing.T) {
	d := churnFleet(1000)
	m := NewMeter(d, 3600)
	c := newChurn(d)
	m.Advance(7200.5) // allocates the cache and the first bins
	now := m.lastTime
	flip := d.PM(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.step()
		if flip.State() == cluster.PMOn {
			flip.SetState(cluster.PMShuttingDown)
		} else {
			flip.SetState(cluster.PMOn)
		}
		now += 1
		m.Advance(now)
	})
	if allocs != 0 {
		t.Errorf("Advance allocates %v times per call in steady state, want 0", allocs)
	}
}

// BenchmarkMeterAdvance is one event's Advance on churnFleet at 1k and 10k
// PMs: a half-second step with one PM bumped in between, so an
// hour boundary falls in one call of 7,200. The meter pays for the PM that
// changed, so both sizes should cost about the same.
func BenchmarkMeterAdvance(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			d := churnFleet(n)
			m := NewMeter(d, 3600)
			c := newChurn(d)
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step()
				now += 0.5
				m.Advance(now)
			}
		})
	}
}

func TestRestoreStateRejectsCorruptEnergy(t *testing.T) {
	n := smallDC(t).Size()
	good := func() MeterState {
		return MeterState{LastTime: 7200, Bins: []float64{5, 6}, PerPM: make([]float64, n), Total: 11,
			Draw: 420, Watts: []float64{240, 0, 180, 0}, Since: []float64{0, 0, 3600, 7200}}
	}
	for _, tc := range []struct {
		name string
		edit func(*MeterState)
		want string
	}{
		{"negative per-PM energy", func(s *MeterState) { s.PerPM[2] = -1 }, "per_pm[2]"},
		{"negative bin", func(s *MeterState) { s.Bins[1] = -0.5 }, "bins[1]"},
		{"negative total", func(s *MeterState) { s.Total = -11 }, "total energy -11"},
		{"infinite total", func(s *MeterState) { s.Total = math.Inf(1) }, "total energy +Inf"},
		{"NaN bin", func(s *MeterState) { s.Bins[0] = math.NaN() }, "bins[0]"},
		{"per-PM count", func(s *MeterState) { s.PerPM = s.PerPM[1:] }, "per-PM accumulators"},
		{"negative time", func(s *MeterState) { s.LastTime = -1 }, "negative meter time"},
		{"negative watts", func(s *MeterState) { s.Watts[2] = -180 }, "watts[2]"},
		{"infinite watts", func(s *MeterState) { s.Watts[0] = math.Inf(1) }, "watts[0]"},
		{"NaN watts", func(s *MeterState) { s.Watts[1] = math.NaN() }, "watts[1]"},
		{"watts count", func(s *MeterState) { s.Watts = s.Watts[1:] }, "per-PM watts"},
		{"negative since", func(s *MeterState) { s.Since[3] = -1 }, "since[3]"},
		{"NaN since", func(s *MeterState) { s.Since[0] = math.NaN() }, "since[0]"},
		{"since after the meter time", func(s *MeterState) { s.Since[1] = 7201 }, "since[1]"},
		{"since count", func(s *MeterState) { s.Since = append(s.Since, 0) }, "per-PM since times"},
		{"infinite fleet draw", func(s *MeterState) { s.Draw = math.Inf(-1) }, "fleet draw -Inf"},
		{"fleet draw with no PM drawing", func(s *MeterState) { s.Watts = make([]float64, n) }, "fleet draw 420"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := good()
			tc.edit(&st)
			err := NewMeter(smallDC(t), 3600).RestoreState(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RestoreState error = %v, want it to name %q", err, tc.want)
			}
		})
	}
	if err := NewMeter(smallDC(t), 3600).RestoreState(good()); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}

// TestMeterResumeWithPendingChanges saves a meter while its feed holds
// changes it has not charged — one PM changed twice at the save's instant,
// once on each side of the save, another back to its old draw — restores
// it over a copy of the fleet, and drives both fleets on. The resumed meter
// must match a meter that never saved bit for bit: per PM, per bin, in
// total, and in everything it would save next.
func TestMeterResumeWithPendingChanges(t *testing.T) {
	// Non-dyadic times and loads, so that charging the pending changes
	// early, in a batch of their own, would change bits.
	const bw, t1, t2, t3 = 100, 130.3, 187.9, 421.7
	vm := func(id cluster.VMID, cpu, mem float64) *cluster.VM {
		return cluster.NewVM(id, vector.New(cpu, mem), 100, 100, 0)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	before := func(dc *cluster.Datacenter) {
		dc.PM(0).SetState(cluster.PMOn)
		dc.PM(4).SetState(cluster.PMOn)
		dc.PM(6).SetState(cluster.PMOn)
		must(dc.PM(0).Host(vm(1, 1.1, 0.9)))
		must(dc.PM(4).Host(vm(2, 0.9, 0.35)))
		must(dc.PM(6).Host(vm(3, 1, 0.5)))
	}
	// At t1, before the save: PM 4 starts shutting down, PM 0 gains a VM
	// (the feed holds them out of ID order) and PM 6 loses its VM and
	// gains an identical one (its draw is back where it was).
	atSave := func(dc *cluster.Datacenter) {
		dc.PM(4).SetState(cluster.PMShuttingDown)
		must(dc.PM(0).Host(vm(4, 0.7, 1.3)))
		must(dc.PM(6).Evict(dc.PM(6).VM(3)))
		must(dc.PM(6).Host(vm(5, 1, 0.5)))
	}
	// Still at t1, after the save: PM 0 changes again.
	afterSave := func(dc *cluster.Datacenter) {
		must(dc.PM(0).Host(vm(6, 0.3, 0.6)))
	}
	later := func(dc *cluster.Datacenter) {
		dc.PM(4).SetState(cluster.PMOff)
		must(dc.PM(0).Evict(dc.PM(0).VM(1)))
	}

	// The run that never saves.
	dcA := mixedDC()
	a := NewMeter(dcA, bw)
	before(dcA)
	a.Advance(t1)
	atSave(dcA)
	afterSave(dcA)
	a.Advance(t2)
	later(dcA)
	a.Advance(t3)

	// The run that saves at t1 and resumes over a fresh copy of its fleet.
	dcB := mixedDC()
	b := NewMeter(dcB, bw)
	before(dcB)
	b.Advance(t1)
	atSave(dcB)
	saved := b.State()
	dcR := mixedDC()
	before(dcR)
	atSave(dcR)
	r := NewMeter(dcR, bw)
	must(r.RestoreState(saved))
	must(r.VerifyDraws())
	afterSave(dcR)
	r.Advance(t2)
	later(dcR)
	r.Advance(t3)

	for i := 0; i < dcA.Size(); i++ {
		if ea, er := a.PMEnergy(cluster.PMID(i)), r.PMEnergy(cluster.PMID(i)); ea != er {
			t.Errorf("PM %d: resumed %v J, uninterrupted %v J", i, er, ea)
		}
	}
	if !slices.Equal(a.Bins(), r.Bins()) || a.TotalEnergy() != r.TotalEnergy() {
		t.Errorf("resumed bins %v total %v, uninterrupted %v total %v", r.Bins(), r.TotalEnergy(), a.Bins(), a.TotalEnergy())
	}
	if sa, sr := fmt.Sprintf("%+v", a.State()), fmt.Sprintf("%+v", r.State()); sa != sr {
		t.Errorf("resumed state\n%s\nuninterrupted\n%s", sr, sa)
	}
}
