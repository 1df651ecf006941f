package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// tableFactor replays a fixed probability table, mirroring the paper's
// worked example where the matrix values are given rather than derived.
type tableFactor struct {
	p map[[2]int]float64 // [pmID, vmID] -> probability
}

func (tableFactor) Name() string { return "table" }

func (t tableFactor) Probability(_ *Context, vm *cluster.VM, pm *cluster.PM, _ bool) float64 {
	return t.p[[2]int{int(pm.ID), int(vm.ID)}]
}

// paperExample builds the worked example of Section III.C: 5 VMs on 3 PMs,
// VM1 on PM2, VM2 on PM1, VM3 on PM1, VM4 on PM3, VM5 on PM3. The paper's
// figure gives the probability of VM1's current placement as 0.8 and shows
// the largest normalized value is 1.28, migrating VM2 to PM2. We encode a
// table consistent with those published anchors.
func paperExample() (*Context, []Factor, []*cluster.VM) {
	big := &cluster.PMClass{
		Name:        "big",
		Capacity:    vector.New(100, 100),
		ActivePower: 100, IdlePower: 50,
		Reliability: 1,
	}
	dc := cluster.MustNew(cluster.Config{
		RMin:   vector.New(1, 1),
		Groups: []cluster.Group{{Class: big, Count: 4}}, // PM0 unused; PMs 1-3 mirror the paper
	})
	for _, p := range dc.PMs() {
		p.SetState(cluster.PMOn)
	}
	hosts := map[int]int{1: 2, 2: 1, 3: 1, 4: 3, 5: 3}
	vms := make([]*cluster.VM, 0, 5)
	for id := 1; id <= 5; id++ {
		vm := cluster.NewVM(cluster.VMID(id), vector.New(1, 1), 1000, 1000, 0)
		if err := dc.PM(cluster.PMID(hosts[id])).Host(vm); err != nil {
			panic(err)
		}
		vm.State = cluster.VMRunning
		vms = append(vms, vm)
	}
	table := tableFactor{p: map[[2]int]float64{
		// Columns: VM1 (cur PM2, 0.8), VM2 (cur PM1, 0.5), VM3 (cur
		// PM1, 0.6), VM4 (cur PM3, 0.7), VM5 (cur PM3, 0.9).
		{1, 1}: 0.40, {2, 1}: 0.80, {3, 1}: 0.56,
		{1, 2}: 0.50, {2, 2}: 0.64, {3, 2}: 0.30, // 0.64/0.5 = 1.28 max
		{1, 3}: 0.60, {2, 3}: 0.54, {3, 3}: 0.42,
		{1, 4}: 0.49, {2, 4}: 0.63, {3, 4}: 0.70, // 0.63/0.7 = 0.9
		{1, 5}: 0.45, {2, 5}: 0.72, {3, 5}: 0.90, // 0.72/0.9 = 0.8
		// PM0 (not in the paper) is made uniformly unattractive.
		{0, 1}: 0.01, {0, 2}: 0.01, {0, 3}: 0.01, {0, 4}: 0.01, {0, 5}: 0.01,
	}}
	return &Context{DC: dc, Now: 0}, []Factor{table}, vms
}

// TestMatrixCurrentHostNormalizedToOne: a column's normalizer is its host's
// hosted cell — the cell Algorithm 1 reads as exactly 1 — and the host is
// never its own alternative.
func TestMatrixCurrentHostNormalizedToOne(t *testing.T) {
	ctx, factors, _ := paperExample()
	ref, err := newReference(ctx, factors)
	if err != nil {
		t.Fatal(err)
	}
	want := map[cluster.VMID]float64{1: 0.8, 2: 0.5, 3: 0.6, 4: 0.7, 5: 0.9}
	for _, col := range ref {
		if col.cur != want[col.vm.ID] || col.best == col.vm.Host {
			t.Errorf("VM %d: normalizer %g, best PM %d, host PM %d; want normalizer %g off the host",
				col.vm.ID, col.cur, col.best, col.vm.Host, want[col.vm.ID])
		}
	}
}

func TestMatrixPaperExampleFirstMove(t *testing.T) {
	ctx, factors, _ := paperExample()
	ref, err := newReference(ctx, factors)
	if err != nil {
		t.Fatal(err)
	}
	c := ref.Best()
	if c < 0 {
		t.Fatal("no best move found")
	}
	if ref[c].vm.ID != 2 || ref[c].best != 2 {
		t.Fatalf("best move = VM%d -> PM%d, want VM2 -> PM2", ref[c].vm.ID, ref[c].best)
	}
	if math.Abs(ref[c].gain-1.28) > 1e-12 {
		t.Errorf("gain = %g, want 1.28 (paper's worked example)", ref[c].gain)
	}
}

// TestMatrixApplyMovesVMAndRefreshes: the paper example's best move, made
// through Migrate, shows in the next cold build — VM2 on PM2, its
// normalizer the 0.64 it moved to, and VM2 no longer the best column.
func TestMatrixApplyMovesVMAndRefreshes(t *testing.T) {
	ctx, factors, _ := paperExample()
	ref, err := newReference(ctx, factors)
	if err != nil {
		t.Fatal(err)
	}
	col := ref[ref.Best()]
	vm := col.vm
	if err := Migrate(vm, ctx.DC.PM(vm.Host), ctx.DC.PM(col.best)); err != nil {
		t.Fatal(err)
	}
	if vm.Host != 2 {
		t.Errorf("VM2 host = %d, want PM2", vm.Host)
	}
	if vm.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", vm.Migrations)
	}
	if ref, err = newReference(ctx, factors); err != nil {
		t.Fatal(err)
	}
	// Column 2's normalizer is now 0.64; moving back to PM1 would gain
	// 0.5/0.64 < 1, so VM2 must not be the best column anymore.
	if got := ref[1].cur; got != 0.64 {
		t.Errorf("VM2 normalizer %g after the move, want 0.64", got)
	}
	if c := ref.Best(); c >= 0 && ref[c].vm.ID == 2 {
		t.Errorf("VM2 re-selected with gain %g after moving", ref[c].gain)
	}
	if err := ctx.DC.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestMatrixTrackersMatchFullRescan: after each of several best moves, the
// next cold build's columns agree with a brute-force scan of the normalized
// cells, each Joint divided by the host's.
func TestMatrixTrackersMatchFullRescan(t *testing.T) {
	ctx, factors, _ := paperExample()
	for i := 0; i < 3; i++ {
		ref, err := newReference(ctx, factors)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range ref {
			vm := col.vm
			cur := Joint(ctx, factors, vm, ctx.DC.PM(vm.Host), true)
			wantPM, wantGain := cluster.NoPM, 0.0
			for _, pm := range ctx.DC.ActivePMs() {
				if pm.ID == vm.Host {
					continue
				}
				if g := Joint(ctx, factors, vm, pm, false) / cur; g > wantGain {
					wantGain, wantPM = g, pm.ID
				}
			}
			if col.cur != cur || col.best != wantPM || math.Abs(col.gain-wantGain) > 1e-12 {
				t.Fatalf("step %d VM %d column (cur %g, PM %d, gain %g) != rescan (cur %g, PM %d, gain %g)",
					i, vm.ID, col.cur, col.best, col.gain, cur, wantPM, wantGain)
			}
		}
		c := ref.Best()
		if c < 0 {
			break
		}
		if err := Migrate(ref[c].vm, ctx.DC.PM(ref[c].vm.Host), ctx.DC.PM(ref[c].best)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMatrixZeroCurrentProbability(t *testing.T) {
	ctx, _, _ := paperExample()
	// A factor that scores the current placement 0 but an alternative
	// positively must yield +Inf gain. The other columns score 0
	// everywhere and have no alternative.
	f := tableFactor{p: map[[2]int]float64{
		{1, 1}: 0.5, {2, 1}: 0, {3, 1}: 0, {0, 1}: 0,
	}}
	ref, err := newReference(ctx, []Factor{f}) // VM1 hosted on PM2
	if err != nil {
		t.Fatal(err)
	}
	c := ref.Best()
	if c < 0 || !math.IsInf(ref[c].gain, 1) {
		t.Fatalf("best column %d, want one at gain +Inf", c)
	}
	if ref[c].best != 1 || ref[c].vm.ID != 1 {
		t.Errorf("best = VM%d -> PM%d, want VM1 -> PM1", ref[c].vm.ID, ref[c].best)
	}
}

func TestMatrixErrors(t *testing.T) {
	ctx, factors, vms := paperExample()
	if _, err := newReference(nil, factors); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := newReference(ctx, nil); err == nil {
		t.Error("no factors accepted")
	}
	ctx.DC.PM(vms[0].Host).SetState(cluster.PMOff)
	if _, err := newReference(ctx, factors); err == nil || !strings.Contains(err.Error(), "VM 1 hosted on inactive PM 2") {
		t.Errorf("a Running VM on an inactive PM: %v", err)
	}
}

// TestMatrixDimensions: one column per Running VM, in ID order, and the
// PM no cell favours (PM0, 0.01 everywhere) the best of none.
func TestMatrixDimensions(t *testing.T) {
	ctx, factors, vms := paperExample()
	vms[2].State = cluster.VMMigrating
	ref, err := newReference(ctx, factors)
	if err != nil {
		t.Fatal(err)
	}
	var ids []cluster.VMID
	for _, col := range ref {
		ids = append(ids, col.vm.ID)
		if col.best == 0 {
			t.Errorf("VM %d: best PM0", col.vm.ID)
		}
	}
	if !slices.Equal(ids, []cluster.VMID{1, 2, 4, 5}) {
		t.Errorf("columns %v, want the Running VMs 1, 2, 4, 5", ids)
	}
}

// TestReferenceColumnRule pins the column rule the lazy rounds are held to
// on an opaque stub factor (tableFactor, which the candidate index does not
// evaluate). A column keeps the lowest-ID PM of the largest raw
// probability, and only then divides: VM4's host cell is 0.7, PM 1's
// 0.8000000000000002 and PM 2's 0.8000000000000003 divide to the same
// 1.1428571428571432, and the raw rule takes PM 2, where dividing every
// cell and keeping the first largest quotient would take PM 1. A column
// whose normalizer is 0 takes its lowest-ID PM of positive probability at
// gain +Inf, however small that cell; equal raw probabilities keep the
// lower PM, and Best breaks equal gains toward the lower VM ID.
func TestReferenceColumnRule(t *testing.T) {
	lo, hi, host := 0.8000000000000002, 0.8000000000000003, 0.7
	if !(lo < hi) || lo/host != hi/host || lo/host != 1.1428571428571432 {
		t.Fatalf("the fixture's cells must differ and divide to one gain: %v, %v", lo/host, hi/host)
	}
	// paperExample's hosts: VM1 on PM2, VM2 and VM3 on PM1, VM4 and VM5
	// on PM3.
	ctx, _, _ := paperExample()
	ref, err := newReference(ctx, []Factor{tableFactor{p: map[[2]int]float64{
		{3, 4}: host, {1, 4}: lo, {2, 4}: hi, // the raw rule
		{1, 1}: 0.01, {3, 1}: 0.9, // a rescue: VM1's host cell is 0
		{1, 5}: 0.5, {3, 5}: 0.5, {0, 5}: 0.6, {2, 5}: 0.6, // equal raw probabilities
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[cluster.VMID]refColumn{
		4: {cur: host, best: 2, p: hi, gain: lo / host},
		1: {cur: 0, best: 1, p: 0.01, gain: math.Inf(1)},
		5: {cur: 0.5, best: 0, p: 0.6, gain: 0.6 / 0.5},
	} {
		col := ref[id-1]
		if col.vm.ID != id || col.cur != want.cur || col.best != want.best || col.p != want.p || col.gain != want.gain {
			t.Errorf("VM %d: (cur %v, PM %d, p %v, gain %v), want (cur %v, PM %d, p %v, gain %v)",
				col.vm.ID, col.cur, col.best, col.p, col.gain, want.cur, want.best, want.p, want.gain)
		}
	}
	if c := ref.Best(); c < 0 || ref[c].vm.ID != 1 {
		t.Fatalf("Best is column %d, want the rescue column, VM1", c)
	}

	// Equal gains across columns: VM2 and VM3 share PM1 (cell 0.5), and
	// each gains 1.2 on some other PM, as VM5 does on PM3's 0.5.
	ref, err = newReference(ctx, []Factor{tableFactor{p: map[[2]int]float64{
		{1, 2}: 0.5, {0, 2}: 0.6,
		{1, 3}: 0.5, {2, 3}: 0.6,
		{3, 5}: 0.5, {0, 5}: 0.6,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if c := ref.Best(); c < 0 || ref[c].vm.ID != 2 || ref[c].best != 0 || ref[c].gain != 0.6/0.5 {
		t.Fatalf("Best is column %d, want VM2 -> PM0 at %v, the lowest VM ID of three equal gains", c, 0.6/0.5)
	}
}
