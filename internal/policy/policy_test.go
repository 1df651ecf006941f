package policy

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vector"
)

// dc builds 3 fast PMs, all on; PM1 pre-loaded with one VM of demand (4,4).
func dc(t *testing.T) (*cluster.Datacenter, *core.Context) {
	t.Helper()
	fast := cluster.FastClass
	d := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 3}},
	})
	for _, p := range d.PMs() {
		p.SetState(cluster.PMOn)
	}
	filler := cluster.NewVM(100, vector.New(4, 4), 100000, 100000, 0)
	if err := d.PM(1).Host(filler); err != nil {
		t.Fatal(err)
	}
	filler.State = cluster.VMRunning
	return d, &core.Context{DC: d, Now: 0}
}

func newVM(id cluster.VMID) *cluster.VM {
	return cluster.NewVM(id, vector.New(2, 2), 100000, 100000, 0)
}

func TestFirstFitPlacesOnLowestID(t *testing.T) {
	_, ctx := dc(t)
	pm := FirstFit{}.Place(ctx, newVM(1))
	if pm == nil || pm.ID != 0 {
		t.Errorf("first-fit chose %v, want PM0", pm)
	}
}

func TestFirstFitSkipsFullPMs(t *testing.T) {
	d, ctx := dc(t)
	// Fill PM0 completely.
	block := cluster.NewVM(101, vector.New(8, 8), 1000, 1000, 0)
	if err := d.PM(0).Host(block); err != nil {
		t.Fatal(err)
	}
	pm := FirstFit{}.Place(ctx, newVM(1))
	if pm == nil || pm.ID != 1 {
		t.Errorf("first-fit chose %v, want PM1", pm)
	}
}

func TestBestFitPrefersHighestProspectiveUtilization(t *testing.T) {
	_, ctx := dc(t)
	pm := BestFit{}.Place(ctx, newVM(1))
	if pm == nil || pm.ID != 1 {
		t.Errorf("best-fit chose %v, want the partially loaded PM1", pm)
	}
}

func TestWorstFitPrefersEmptiestPM(t *testing.T) {
	_, ctx := dc(t)
	pm := WorstFit{}.Place(ctx, newVM(1))
	if pm == nil || pm.ID == 1 {
		t.Errorf("worst-fit chose %v, want an empty PM", pm)
	}
}

// TestFitPlaceAllocatesNothing holds every fit-family Place to zero
// allocations on a loaded fleet: the shared walk scores PMs in place,
// Random counts instead of listing, and Overbook sums its booked load
// dimension by dimension.
func TestFitPlaceAllocatesNothing(t *testing.T) {
	ctx := loadedFleet(t, vector.New(1, 2), vector.New(4, 4), vector.New(0, 0), vector.New(6, 1), vector.New(3, 3))
	ctx.Obs = obs.New()
	vm := newVM(1)
	for _, p := range []Policy{FirstFit{}, BestFit{}, WorstFit{}, NewRandom(7), NewThreshold(), NewOverbook()} {
		if allocs := testing.AllocsPerRun(100, func() { p.Place(ctx, vm) }); allocs != 0 {
			t.Errorf("%s: Place allocates %v times a call, want 0", p.Name(), allocs)
		}
	}
}

func TestRandomPlacesOnFeasiblePM(t *testing.T) {
	d, ctx := dc(t)
	r := NewRandom(7)
	seen := map[cluster.PMID]bool{}
	for i := 0; i < 200; i++ {
		pm := r.Place(ctx, newVM(cluster.VMID(i)))
		if pm == nil {
			t.Fatal("random found no PM")
		}
		if !pm.CanHost(vector.New(2, 2)) {
			t.Fatalf("random chose infeasible PM %d", pm.ID)
		}
		seen[pm.ID] = true
	}
	if len(seen) < 2 {
		t.Errorf("random only ever chose %v", seen)
	}
	_ = d
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	_, ctx := dc(t)
	a, b := NewRandom(3), NewRandom(3)
	for i := 0; i < 50; i++ {
		pa := a.Place(ctx, newVM(cluster.VMID(i)))
		pb := b.Place(ctx, newVM(cluster.VMID(i)))
		if pa.ID != pb.ID {
			t.Fatal("same-seed random placers diverged")
		}
	}
}

func TestDynamicPlaceUsesJointProbability(t *testing.T) {
	_, ctx := dc(t)
	pm := NewDynamic().Place(ctx, newVM(1))
	// The busy PM1 has a higher prospective utilization level, so the
	// efficiency factor makes it the best placement.
	if pm == nil || pm.ID != 1 {
		t.Errorf("dynamic chose %v, want PM1", pm)
	}
}

func TestDynamicConsolidateMigrates(t *testing.T) {
	d, ctx := dc(t)
	// Spread another VM onto PM2 so consolidation has something to do.
	stray := cluster.NewVM(200, vector.New(2, 2), 100000, 100000, 0)
	if err := d.PM(2).Host(stray); err != nil {
		t.Fatal(err)
	}
	stray.State = cluster.VMRunning

	moves, err := NewDynamic().Consolidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("dynamic consolidation produced no moves")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStaticSchemesNeverConsolidate(t *testing.T) {
	_, ctx := dc(t)
	for _, p := range []Policy{FirstFit{}, BestFit{}, WorstFit{}, NewRandom(1)} {
		moves, err := p.Consolidate(ctx)
		if err != nil || moves != nil {
			t.Errorf("%s consolidated: %v, %v", p.Name(), moves, err)
		}
	}
}

func TestNames(t *testing.T) {
	want := map[string]Policy{
		"first-fit": FirstFit{},
		"best-fit":  BestFit{},
		"worst-fit": WorstFit{},
		"random":    NewRandom(1),
		"dynamic":   NewDynamic(),
	}
	for name, p := range want {
		if p.Name() != name {
			t.Errorf("Name = %q, want %q", p.Name(), name)
		}
	}
	v := NewDynamicVariant("dynamic-novir", nil, core.DefaultParams())
	if v.Name() != "dynamic-novir" {
		t.Errorf("variant name = %q", v.Name())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"first-fit", "best-fit", "worst-fit", "random", "dynamic"} {
		p, err := ByName(name, 1)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestDynamicVariantFallsBackToDefaultFactors(t *testing.T) {
	_, ctx := dc(t)
	v := NewDynamicVariant("x", nil, core.DefaultParams())
	if pm := v.Place(ctx, newVM(1)); pm == nil {
		t.Error("variant with nil factors failed to place")
	}
}
