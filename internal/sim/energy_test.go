package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/vector"
	"repro/internal/workload"
)

// staticFleetConfig is the shape of the benchmark's static-fleet-1k row on
// a short trace: 1,000 Table II PMs, no spare controller, and the first
// day of the seed's week at 10x. The simulator's own per-event work (the
// energy meter, the boot order, the fleet scans) is most of such a run.
func staticFleetConfig(tb testing.TB, scheme string, seed int64) Config {
	tb.Helper()
	gc := workload.DefaultWeekConfig(seed)
	gc.DailyJobs = []int{10 * gc.DailyJobs[0]}
	jobs, err := workload.Generate(gc)
	if err != nil {
		tb.Fatal(err)
	}
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	workload.SortBySubmit(jobs)
	placer, err := policy.ByName(scheme, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{DC: cluster.TableIIFleetScaled(1000), Placer: placer, Requests: workload.ToRequests(jobs)}
}

// BenchmarkEngineStaticFleet runs staticFleetConfig's first-fit day end to
// end, set-up excluded: the per-event simulator work of the benchmark's
// static-fleet-1k row, small enough for
// `go test -bench EngineStaticFleet -cpuprofile` to profile it.
func BenchmarkEngineStaticFleet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := staticFleetConfig(b, "first-fit", 1)
		b.StartTimer()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// scanMeter is the energy meter as it was before the change feed, kept as
// an oracle the run cannot see: on every advance it charges every PM for
// the elapsed interval at its current Draw, in ID order, spreading each
// charge over the bins it overlaps.
type scanMeter struct {
	binWidth, last, total float64
	bins, perPM           []float64
}

func (o *scanMeter) advance(dc *cluster.Datacenter, now float64) {
	if now <= o.last {
		return
	}
	dt := now - o.last
	for i, p := range dc.PMs() {
		e := power.Draw(p) * dt
		if e == 0 {
			continue
		}
		o.perPM[i] += e
		o.total += e
		rate := e / dt
		for t := o.last; t < now; {
			bin := int(t / o.binWidth)
			end := math.Min(float64(bin+1)*o.binWidth, now)
			for len(o.bins) <= bin {
				o.bins = append(o.bins, 0)
			}
			o.bins[bin] += rate * (end - t)
			t = end
		}
	}
	o.last = now
}

// energyRelTol is the bound of power's TestMeterMatchesReference: the
// feed-driven meter sums the fleet draw before multiplying, and each PM's
// energy once per stretch of constant draw, so it rounds differently.
const energyRelTol = 1e-11

// TestStaticFleetEnergyDigest holds every energy figure of a 1,000-PM
// static run to the scan meter, which charges each PM at its Draw before
// every event: the total, every hour and every PM within energyRelTol,
// the number of hours exactly.
func TestStaticFleetEnergyDigest(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		seed   int64
	}{
		{"first-fit", 1},
		{"best-fit", 1},
		{"first-fit", 7},
		{"best-fit", 7},
	} {
		t.Run(fmt.Sprintf("%s/seed%d", tc.scheme, tc.seed), func(t *testing.T) {
			m, err := New(staticFleetConfig(t, tc.scheme, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			eng := m.s.eng
			o := &scanMeter{binWidth: meterBin, perPM: make([]float64, m.s.dc.Size())}
			for {
				if at, _, ok := eng.PeekNextEventTime(); ok {
					o.advance(m.s.dc, at)
				}
				ok, err := m.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			res, err := m.Finish()
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			near := func(what string, got, ref float64) {
				t.Helper()
				if got == ref {
					return
				}
				d := math.Abs(got-ref) / math.Abs(ref)
				worst = max(worst, d)
				if d > energyRelTol {
					t.Errorf("%s: %v kWh, scan meter %v", what, got, ref)
				}
			}
			near("total", res.Summary.TotalEnergyKWh, power.KWh(o.total))
			if len(res.EnergyKWh.Values) != len(o.bins) {
				t.Fatalf("%d hourly bins, scan meter %d", len(res.EnergyKWh.Values), len(o.bins))
			}
			for b, e := range res.EnergyKWh.Values {
				near(fmt.Sprintf("hour %d", b), e, power.KWh(o.bins[b]))
			}
			for id, e := range o.perPM {
				near(fmt.Sprintf("PM %d", id), res.PMEnergyKWh[cluster.PMID(id)], power.KWh(e))
			}
			t.Logf("%.6f kWh; largest relative difference from the scan meter %.3g", res.Summary.TotalEnergyKWh, worst)
		})
	}
}

// sortedBootCandidates is bootCandidates as it was before the boot order
// was kept across calls: collect the off PMs, then sort them by active
// watts per minimal-VM slot and ID on every call.
func sortedBootCandidates(dc *cluster.Datacenter) []*cluster.PM {
	var off []*cluster.PM
	for _, pm := range dc.PMs() {
		if pm.State() == cluster.PMOff {
			off = append(off, pm)
		}
	}
	rmin := dc.RMinShared()
	perVM := func(p *cluster.PM) float64 {
		w := p.Class.MaxMinimalVMs(rmin)
		if w == 0 {
			return math.Inf(1)
		}
		return p.Class.ActivePower / float64(w)
	}
	slices.SortFunc(off, func(a, b *cluster.PM) int {
		if c := cmp.Compare(perVM(a), perVM(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return off
}

// TestBootCandidatesMatchSortPerCall holds the once-sorted boot order to a
// fresh sort of the off PMs over shuffled fleet states, on a fleet whose
// classes are interleaved by ID, tie on watts per slot, and include one
// that fits no minimal VM.
func TestBootCandidatesMatchSortPerCall(t *testing.T) {
	fast, slow := cluster.FastClass, cluster.SlowClass
	twin := cluster.SlowClass // the slow class's watts per slot under another name
	twin.Name = "slow-twin"
	tiny := cluster.SlowClass // cannot fit rmin: +Inf watts per slot
	tiny.Name, tiny.Capacity = "tiny", vector.New(0.5, 4)
	var groups []cluster.Group
	for _, c := range []*cluster.PMClass{&slow, &fast, &tiny, &twin, &fast, &slow} {
		groups = append(groups, cluster.Group{Class: c, Count: 7})
	}
	dc := cluster.MustNew(cluster.Config{RMin: cluster.TableIIRMin.Clone(), Groups: groups})
	s := &simulator{dc: dc}
	states := []cluster.PMState{cluster.PMOff, cluster.PMBooting, cluster.PMOn, cluster.PMShuttingDown, cluster.PMFailed}
	rng := stats.NewStream(5)
	for round := 0; round < 50; round++ {
		for _, pm := range dc.PMs() {
			pm.SetState(states[rng.Intn(len(states))])
		}
		want := sortedBootCandidates(dc)
		var got []*cluster.PM
		s.bootCandidates(func(pm *cluster.PM) bool {
			got = append(got, pm)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: boot order %v, sort per call %v", round, pmIDs(got), pmIDs(want))
		}
		// A walk that stops early, booting what it is given, as
		// ensureBoots does: it must see a prefix of the same order.
		if k := len(want) / 2; k > 0 {
			var head []*cluster.PM
			s.bootCandidates(func(pm *cluster.PM) bool {
				pm.SetState(cluster.PMBooting)
				head = append(head, pm)
				return len(head) < k
			})
			if !slices.Equal(head, want[:k]) {
				t.Fatalf("round %d: first %d candidates %v, want %v", round, k, pmIDs(head), pmIDs(want[:k]))
			}
		}
	}
}

func pmIDs(pms []*cluster.PM) []cluster.PMID {
	ids := make([]cluster.PMID, len(pms))
	for i, p := range pms {
		ids[i] = p.ID
	}
	return ids
}

// TestRestoreRejectsCorruptMeter: a hand-edited checkpoint carrying a
// negative per-PM, bin or total energy is refused by name instead of
// resuming into a run that reports negative energy.
func TestRestoreRejectsCorruptMeter(t *testing.T) {
	load := mixedLoad()
	m, err := New(snapCfg(load, policy.NewDynamic(), nil))
	if err != nil {
		t.Fatal(err)
	}
	for m.Dispatched() < 150 {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(snapCfg(load, policy.NewDynamic(), nil), bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("unedited checkpoint: %v", err)
	}
	for _, tc := range []struct{ field, want string }{
		{`"per_pm":[`, "per_pm[0]"},
		{`"bins":[`, "bins[0]"},
		{`"total":`, "total energy -7"},
	} {
		t.Run(strings.Trim(tc.field, `":[`), func(t *testing.T) {
			// The field's first number becomes -7.
			re := regexp.MustCompile(regexp.QuoteMeta(tc.field) + `[0-9.eE+-]+`)
			if !re.Match(ckpt.Bytes()) {
				t.Fatalf("checkpoint has no %s value to corrupt", tc.field)
			}
			bad := re.ReplaceAll(ckpt.Bytes(), []byte(tc.field+"-7"))
			_, err := Restore(snapCfg(load, policy.NewDynamic(), nil), bytes.NewReader(bad))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("restore error = %v, want it to name %q", err, tc.want)
			}
		})
	}
}
