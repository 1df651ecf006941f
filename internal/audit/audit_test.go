package audit

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/spare"
	"repro/internal/vector"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"off", Off, false},
		{"", Off, false},
		{"period", Period, false},
		{"event", Event, false},
		{" Event ", Event, false},
		{"PERIOD", Period, false},
		{"sometimes", Off, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseMode(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, m := range []Mode{Off, Period, Event} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("round-trip %v failed: %v, %v", m, back, err)
		}
	}
}

func TestRegisterRejectsBadChecks(t *testing.T) {
	var a Auditor
	for _, c := range []Check{
		{Name: "x"},
		{Fn: func(float64) error { return nil }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", c)
				}
			}()
			a.Register(c)
		}()
	}
}

func TestAuditorGranularityAndViolations(t *testing.T) {
	var a Auditor
	var cheap, expensive int
	boom := errors.New("ledger broke")
	a.Register(Check{Name: "cheap", PerEvent: true, Fn: func(float64) error { cheap++; return nil }})
	a.Register(Check{Name: "expensive", Fn: func(now float64) error {
		expensive++
		if now >= 100 {
			return boom
		}
		return nil
	}})

	if err := a.RunEvent(1); err != nil {
		t.Fatal(err)
	}
	if cheap != 1 || expensive != 0 {
		t.Fatalf("RunEvent ran cheap=%d expensive=%d, want 1, 0", cheap, expensive)
	}
	if err := a.RunPeriod(2); err != nil {
		t.Fatal(err)
	}
	if cheap != 2 || expensive != 1 {
		t.Fatalf("RunPeriod ran cheap=%d expensive=%d, want 2, 1", cheap, expensive)
	}

	err := a.RunPeriod(100)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("violation not surfaced: %v", err)
	}
	vs := a.violations
	if len(vs) != 1 || vs[0].Check != "expensive" || vs[0].Time != 100 {
		t.Fatalf("violations = %+v", vs)
	}
	if a.Checks() != 5 {
		t.Fatalf("Checks() = %d, want 5 (1 event + 2 periods of 2)", a.Checks())
	}
}

func auditFixture(t *testing.T) (*cluster.Datacenter, []*cluster.VM) {
	t.Helper()
	fast := cluster.FastClass
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 3}},
	})
	for _, pm := range dc.PMs() {
		pm.SetState(cluster.PMOn)
	}
	var vms []*cluster.VM
	for i := 0; i < 4; i++ {
		vm := cluster.NewVM(cluster.VMID(i+1), vector.New(1, 0.5), 1000, 1000, 0)
		if err := dc.PM(cluster.PMID(i % 3)).Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
		vms = append(vms, vm)
	}
	return dc, vms
}

func TestStateCheckDetectsCorruption(t *testing.T) {
	dc, vms := auditFixture(t)
	check := StateCheck(dc)
	if err := check.Fn(0); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	host := vms[0].Host
	vms[0].Host = 99 // detach the bookkeeping from reality
	if err := check.Fn(0); err == nil {
		t.Fatal("corrupted Host field not detected")
	}
	vms[0].Host = host
}

func TestStateCheckDetectsBadLifecycleState(t *testing.T) {
	dc, vms := auditFixture(t)
	check := StateCheck(dc)
	vms[1].State = cluster.VMFinished // finished but still occupying a PM
	if err := check.Fn(0); err == nil {
		t.Fatal("finished VM still hosted not detected")
	}
}

func TestEnergyCheckConsistency(t *testing.T) {
	dc, _ := auditFixture(t)
	m := power.NewMeter(dc, 3600)
	m.Advance(5000)
	m.Advance(9500)
	if err := EnergyCheck(m, dc).Fn(9500); err != nil {
		t.Fatalf("consistent meter flagged: %v", err)
	}
}

// TestEnergyCheckDetectsUnstampedUsedWrite: the meter re-reads a PM's draw
// only when the datacenter's change feed names it, so a write to PM.Used
// that skips PM.bump would be charged at the stale draw. The
// energy check must name the PM.
func TestEnergyCheckDetectsUnstampedUsedWrite(t *testing.T) {
	dc, _ := auditFixture(t)
	m := power.NewMeter(dc, 3600)
	m.Advance(100)
	check := EnergyCheck(m, dc)
	if err := check.Fn(100); err != nil {
		t.Fatalf("consistent meter flagged: %v", err)
	}
	dc.PM(2).Used[0] += 2
	err := check.Fn(100)
	if err == nil || !strings.Contains(err.Error(), "PM 2 metered at") {
		t.Fatalf("unstamped Used write: error = %v, want PM 2's metered draw named", err)
	}
}

func TestConservationCheckDetectsLoss(t *testing.T) {
	dc, _ := auditFixture(t)
	placed := dc.VMCount()
	good := ConservationCheck(dc, func() (int, int, int, int) { return placed + 3, 1, 1, 1 })
	if err := good.Fn(0); err != nil {
		t.Fatalf("balanced ledger flagged: %v", err)
	}
	lost := ConservationCheck(dc, func() (int, int, int, int) { return placed + 4, 1, 1, 1 })
	if err := lost.Fn(0); err == nil {
		t.Fatal("lost VM not detected")
	}
}

func TestSpareCheckBounds(t *testing.T) {
	dc, _ := auditFixture(t)
	cfg := spare.DefaultConfig()
	cfg.MaxSpares = 2
	plan := &spare.Plan{At: 0, Spares: 1, NArrival: 2, NDeparture: 1, NAve: 1.5, ExpectedArrivals: 1.2}
	check := SpareCheck(cfg, dc, func() *spare.Plan { return plan })
	if err := check.Fn(0); err != nil {
		t.Fatalf("in-bounds plan flagged: %v", err)
	}
	bad := []spare.Plan{
		{Spares: -1},
		{Spares: dc.Size() + 1},
		{Spares: 3}, // above MaxSpares 2
		{NArrival: -2},
		{ExpectedArrivals: -1},
	}
	for i := range bad {
		plan = &bad[i]
		if err := check.Fn(0); err == nil {
			t.Errorf("bad plan %d (%+v) not detected", i, bad[i])
		}
	}
	plan = nil
	if err := check.Fn(0); err != nil {
		t.Fatalf("nil plan (pre-first-period) flagged: %v", err)
	}
}

func TestViolationOrderPreserved(t *testing.T) {
	var a Auditor
	for i := 0; i < 3; i++ {
		i := i
		a.Register(Check{Name: fmt.Sprintf("c%d", i), PerEvent: true, Fn: func(float64) error {
			return fmt.Errorf("fail %d", i)
		}})
	}
	_ = a.RunEvent(7)
	vs := a.violations
	if len(vs) != 3 {
		t.Fatalf("recorded %d violations, want 3 (all failures, not just the first)", len(vs))
	}
	for i, v := range vs {
		if v.Check != fmt.Sprintf("c%d", i) {
			t.Fatalf("violation %d is %s, want c%d", i, v.Check, i)
		}
	}
}
