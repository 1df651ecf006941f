package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

func wanDC() *cluster.Datacenter {
	fast := cluster.FastClass
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 4}},
	})
	for _, p := range dc.PMs() {
		p.SetState(cluster.PMOn)
	}
	return dc
}

func TestNewWANFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewWANFactor("a", 0.5)
}

func TestWANFactorSameSiteNeutral(t *testing.T) {
	dc := wanDC()
	wf := NewWANFactor("east", 5)
	ctx := &Context{DC: dc, Now: 0}
	vm := cluster.NewVM(1, vector.New(1, 0.5), 10000, 10000, 0)
	mustHost(t, dc.PM(0), vm)
	if got := wf.Probability(ctx, vm, dc.PM(1), false); got != 1 {
		t.Errorf("same-site p_wan = %g, want 1", got)
	}
	if got := wf.Probability(ctx, vm, dc.PM(0), true); got != 1 {
		t.Errorf("hosted p_wan = %g, want 1", got)
	}
}

func TestWANFactorNewVMNeutral(t *testing.T) {
	dc := wanDC()
	wf := NewWANFactor("east", 5)
	wf.Assign(2, "west")
	ctx := &Context{DC: dc, Now: 0}
	vm := cluster.NewVM(1, vector.New(1, 0.5), 10000, 10000, 0)
	if got := wf.Probability(ctx, vm, dc.PM(2), false); got != 1 {
		t.Errorf("unplaced VM p_wan = %g, want 1 (no state to ship)", got)
	}
}

func TestWANFactorCrossSitePenalty(t *testing.T) {
	dc := wanDC()
	wf := NewWANFactor("east", 5) // extra = 4 * 40 = 160 s on fast targets
	wf.Assign(2, "west")
	wf.Assign(3, "west")
	ctx := &Context{DC: dc, Now: 0}

	vm := cluster.NewVM(1, vector.New(1, 0.5), 1600, 1600, 0)
	mustHost(t, dc.PM(0), vm) // east
	want := math.Pow((1600.0-160)/1600, 2)
	if got := wf.Probability(ctx, vm, dc.PM(2), false); math.Abs(got-want) > 1e-12 {
		t.Errorf("cross-site p_wan = %g, want %g", got, want)
	}

	// Too little remaining time to ship across the WAN.
	short := cluster.NewVM(2, vector.New(1, 0.5), 150, 150, 0)
	mustHost(t, dc.PM(0), short)
	if got := wf.Probability(ctx, short, dc.PM(2), false); got != 0 {
		t.Errorf("short-remaining cross-site p_wan = %g, want 0", got)
	}
}

func TestWANFactorKeepsConsolidationLocal(t *testing.T) {
	// Two sites, two PMs each. Fragmented load within the east site must
	// consolidate east-to-east, not across the WAN, when gains are
	// comparable.
	dc := wanDC()
	wf := NewWANFactor("east", 50) // brutal WAN cost
	wf.Assign(2, "west")
	wf.Assign(3, "west")
	factors := append(DefaultFactors(), wf)
	ctx := &Context{DC: dc, Now: 0}

	// Runtimes chosen so the WAN transfer (4 * 49 * T_mig ~ 1960 s extra)
	// devours most of the remaining time: a rational scheme amortizes a
	// WAN move only for long-lived VMs, and these are not.
	a := cluster.NewVM(1, vector.New(2, 1), 3000, 3000, 0)
	b := cluster.NewVM(2, vector.New(2, 1), 3000, 3000, 0)
	mustHost(t, dc.PM(0), a)
	mustHost(t, dc.PM(1), b)
	// Make the west site attractive on pure efficiency: pre-load PM2.
	w := cluster.NewVM(3, vector.New(4, 2), 3000, 3000, 0)
	mustHost(t, dc.PM(2), w)

	moves, err := Consolidate(ctx, factors, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no consolidation at all")
	}
	for _, mv := range moves {
		if wf.Site(mv.From) != wf.Site(mv.To) {
			t.Errorf("WAN-crossing move %+v despite 50x multiplier on short-lived VMs", mv)
		}
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWANFactorName(t *testing.T) {
	if NewWANFactor("a", 2).Name() != "wan" {
		t.Error("name wrong")
	}
}
