package core

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/vector"
)

// rosterSide is one of two identically built fleets a hazard script is
// applied to: the live side takes its columns from the roster through
// ConsolidateWith, the cold side runs the cold dense reference
// (denseConsolidate) over MigratableVMs, every pass.
type rosterSide struct {
	ctx *Context
	vms map[cluster.VMID]*cluster.VM
}

func newRosterSide(t *testing.T) *rosterSide {
	ctx, vms := spreadState(t, 16, 30, 3)
	s := &rosterSide{ctx: ctx, vms: make(map[cluster.VMID]*cluster.VM)}
	for _, vm := range vms {
		s.vms[vm.ID] = vm
	}
	return s
}

func (s *rosterSide) evict(t *testing.T, id cluster.VMID, to cluster.VMState) {
	t.Helper()
	vm := s.vms[id]
	if err := s.ctx.DC.PM(vm.Host).Evict(vm); err != nil {
		t.Fatal(err)
	}
	vm.State = to
}

// host places the VM on the first PM other than avoid with room for it.
func (s *rosterSide) host(t *testing.T, vm *cluster.VM, avoid cluster.PMID, as cluster.VMState) {
	t.Helper()
	s.vms[vm.ID] = vm
	for _, pm := range s.ctx.DC.PMs() {
		if pm.ID != avoid && pm.CanHost(vm.Demand) {
			if err := pm.Host(vm); err != nil {
				t.Fatal(err)
			}
			vm.State = as
			return
		}
	}
	t.Fatalf("no room for VM %d", vm.ID)
}

// empty evicts everything the PM hosts, leaving the VMs in state to.
func (s *rosterSide) empty(t *testing.T, id cluster.PMID, to cluster.VMState) []*cluster.VM {
	t.Helper()
	victims := s.ctx.DC.PM(id).VMs()
	for _, vm := range victims {
		s.evict(t, vm.ID, to)
	}
	return victims
}

func newRosterVM(id cluster.VMID, mem float64) *cluster.VM {
	return cluster.NewVM(id, vector.New(1, mem), 40000, 40000, 0)
}

// rosterHazards are the ways the placed set, the states or the fleet can
// change between two passes that a roster keyed on per-PM versions could
// plausibly miss. Each step is followed by an audited pass.
var rosterHazards = []struct {
	name  string
	steps []func(t *testing.T, s *rosterSide)
}{
	{"evict and re-host of the same VM", []func(*testing.T, *rosterSide){
		func(t *testing.T, s *rosterSide) {
			vm := s.vms[7]
			from := vm.Host
			s.evict(t, 7, cluster.VMMigrating)
			s.host(t, vm, from, cluster.VMRunning)
		},
	}},
	{"failure re-queue then re-place", []func(*testing.T, *rosterSide){
		func(t *testing.T, s *rosterSide) {
			failed := s.vms[5].Host
			victims := s.empty(t, failed, cluster.VMQueued)
			s.ctx.DC.PM(failed).SetState(cluster.PMFailed)
			s.host(t, victims[0], failed, cluster.VMRunning) // same pointer, Host went through NoPM
		},
		func(t *testing.T, s *rosterSide) { // the rest of the queue drains a pass later
			for id := cluster.VMID(1); id <= 40; id++ { // ID order: both sides must agree
				if vm := s.vms[id]; vm != nil && vm.State == cluster.VMQueued {
					s.host(t, vm, cluster.NoPM, cluster.VMCreating)
				}
			}
		},
	}},
	{"state changes with no version bump", []func(*testing.T, *rosterSide){
		func(t *testing.T, s *rosterSide) {
			s.vms[3].State, s.vms[9].State = cluster.VMCreating, cluster.VMMigrating
		},
		func(t *testing.T, s *rosterSide) {
			s.vms[3].State, s.vms[9].State = cluster.VMRunning, cluster.VMRunning
		},
	}},
	{"PM shutdown, boot and failure", []func(*testing.T, *rosterSide){
		func(t *testing.T, s *rosterSide) {
			s.empty(t, 2, cluster.VMFinished)
			s.ctx.DC.PM(2).SetState(cluster.PMOff)
		},
		func(t *testing.T, s *rosterSide) {
			s.ctx.DC.PM(2).SetState(cluster.PMOn)
			vm := newRosterVM(900, 0.5)
			s.vms[900] = vm
			if err := s.ctx.DC.PM(2).Host(vm); err != nil {
				t.Fatal(err)
			}
			vm.State = cluster.VMRunning
		},
		func(t *testing.T, s *rosterSide) {
			s.empty(t, 4, cluster.VMFinished)
			s.ctx.DC.PM(4).SetState(cluster.PMFailed)
		},
	}},
	{"queued lower ID placed after higher IDs", []func(*testing.T, *rosterSide){
		func(t *testing.T, s *rosterSide) {
			s.evict(t, 2, cluster.VMQueued)
			s.host(t, newRosterVM(901, 1), cluster.NoPM, cluster.VMRunning)
			s.host(t, newRosterVM(902, 0.25), cluster.NoPM, cluster.VMRunning)
		},
		func(t *testing.T, s *rosterSide) { s.host(t, s.vms[2], cluster.NoPM, cluster.VMRunning) },
	}},
	{"fresh Context after a restore", []func(*testing.T, *rosterSide){
		func(t *testing.T, s *rosterSide) {
			s.evict(t, 11, cluster.VMFinished)
			s.ctx = &Context{DC: s.ctx.DC, Now: s.ctx.Now}
		},
	}},
}

// TestRosterHazards runs every hazard on the paper's four and on the four
// with a price term appended. After each step the live side passes under
// SelfAudit (the roster checked against a cold rebuild, every round against
// a cold dense build) and CheckColumns, and its moves must be the cold dense
// reference's.
func TestRosterHazards(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 2}
	moves := 0
	for _, list := range []struct {
		name    string
		factors []Factor
	}{{"canonical", DefaultFactors()}, {"appended", append(DefaultFactors(), offsetPrices(16))}} {
		for _, hz := range rosterHazards {
			t.Run(list.name+"/"+hz.name, func(t *testing.T) {
				live, cold := newRosterSide(t), newRosterSide(t)
				pass := func(step int) {
					t.Helper()
					live.ctx.SelfAudit = true // a restore step replaces the Context
					got, err := ConsolidateWith(live.ctx, list.factors, params, MatrixOptions{})
					if err != nil {
						t.Fatalf("after step %d: %v", step, err)
					}
					if err := live.ctx.CheckColumns(); err != nil {
						t.Fatalf("after step %d: %v", step, err)
					}
					want := denseConsolidate(t, cold.ctx, list.factors, params)
					moves += len(got)
					if len(got) != len(want) {
						t.Fatalf("after step %d: roster pass made moves %+v, cold pass %+v", step, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("after step %d move %d: roster %+v != cold %+v", step, i, got[i], want[i])
						}
					}
				}
				pass(0)
				for i, step := range hz.steps {
					step(t, live)
					step(t, cold)
					pass(i + 1)
				}
			})
		}
	}
	if moves < len(rosterHazards) {
		t.Fatalf("degenerate table: %d moves in all", moves)
	}
}

// TestRosterCounters scripts the roster's work counters: one cold build
// per Context, no PM re-read over an unchanged fleet or for a state flip,
// one PM and one insert per arrival, one PM and one drop per departure, both
// endpoints — one drop, one insert — per move, re-read right after it.
func TestRosterCounters(t *testing.T) {
	ctx, vms := tableIIState(t, 20, 60, 5)
	ctx.Obs = obs.New()
	frozen := Params{MIGThreshold: 1e9, MIGRound: 1} // no move, so the feed stays empty
	pass := func() {
		t.Helper()
		if _, err := ConsolidateWith(ctx, DefaultFactors(), frozen, MatrixOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(when string, cold, resynced, inserts, drops int64) {
		t.Helper()
		for name, want := range map[string]int64{
			"core.roster_cold_builds":  cold,
			"core.roster_resynced_pms": resynced,
			"core.roster_inserts":      inserts,
			"core.roster_drops":        drops,
		} {
			if got := ctx.Obs.Counter(name).Value(); got != want {
				t.Errorf("%s: %s = %d, want %d", when, name, got, want)
			}
		}
	}
	pass()
	expect("first pass", 1, 0, 0, 0)
	pass()
	expect("unchanged fleet", 1, 0, 0, 0)

	arrival := newRosterVM(1000, 0.5)
	if err := ctx.DC.PM(19).Host(arrival); err != nil {
		t.Fatal(err)
	}
	arrival.State = cluster.VMCreating
	pass()
	expect("one Host", 1, 1, 1, 0)
	arrival.State = cluster.VMRunning // no version bump: a filter change only
	pass()
	expect("creation done", 1, 1, 1, 0)

	if err := ctx.DC.PM(vms[0].Host).Evict(vms[0]); err != nil {
		t.Fatal(err)
	}
	if err := ctx.CheckColumns(); err != nil { // reconciles, but is not the run's work
		t.Fatal(err)
	}
	expect("CheckColumns", 1, 1, 1, 0)
	if err := ctx.DC.PM(vms[1].Host).Evict(vms[1]); err != nil {
		t.Fatal(err)
	}
	pass()
	expect("one Evict", 1, 2, 1, 1)

	moves, err := ConsolidateWith(ctx, DefaultFactors(), Params{MIGThreshold: 1.05, MIGRound: 1}, MatrixOptions{})
	if err != nil || len(moves) != 1 {
		t.Fatalf("a pass of one round made moves %v (%v), want one", moves, err)
	}
	expect("one move", 1, 4, 2, 2)
	pass()
	expect("after the move", 1, 4, 2, 2)
	if calls := ctx.Obs.Phase("collect_columns").Calls(); calls != 7 {
		t.Errorf("collect_columns timed %d passes, want 7", calls)
	}
	if cells := ctx.Obs.Counter("core.bound_cells").Value(); cells == 0 {
		t.Error("no sweep counted a cell")
	}
}

// TestFrameRejectsUnorderedColumns: NewMatrix orders a caller's columns by
// ID — the same matrix from any order — and the adjacent-ID scan after the
// sort rejects a VM listed twice.
func TestFrameRejectsUnorderedColumns(t *testing.T) {
	ctx, vms := tableIIState(t, 10, 20, 1)
	sorted, err := NewMatrix(ctx, DefaultFactors(), vms)
	if err != nil {
		t.Fatalf("ascending columns rejected: %v", err)
	}
	defer sorted.Release()
	shuffled := slices.Clone(vms)
	shuffled[3], shuffled[4] = shuffled[4], shuffled[3]
	slices.Reverse(shuffled)
	m, err := NewMatrix(ctx, DefaultFactors(), shuffled)
	if err != nil {
		t.Fatalf("a caller's unsorted list must be sorted, got %v", err)
	}
	if err := m.Diff(sorted); err != nil {
		t.Fatalf("unsorted columns built another matrix: %v", err)
	}
	m.Release()
	if _, err := NewMatrix(ctx, DefaultFactors(), append(shuffled, vms[7])); err == nil {
		t.Fatal("a VM listed twice accepted")
	}
}

// TestRosterRereadPerShape holds each kind of re-read to a cold rebuild
// (diffRoster): the PM leaves a shape's host order only when the shape left
// it or its cur moved, from the old cur, and enters only when the shape is
// new to it or its cur moved, at the new cur. The fleet is TableIIFleetScaled(8)
// (PMs 0-1 fast, 2-7 slow); a fast PM holding four VMs of shape c sits on
// its top efficiency level, where an arrival or a departure of a small VM
// leaves cur as it was. Each row states whether the change moves the
// target's cur, and the rows that move it cross another host of a shape the
// target keeps, so a removal skipped or made at the new cur leaves the
// target out of order or twice in it. Each row also pins the inserts and
// drops the re-read counts; the interleaved row kills a merge walk that
// stops advancing through the old bucket (kept VMs count as inserts) and
// one that matches by ID instead of identity (a returning ID keeps its old
// shape).
func TestRosterRereadPerShape(t *testing.T) {
	a, b, c := vector.New(1, 0.25), vector.New(1, 0.5), vector.New(1, 1)
	small := vector.New(0.5, 0.125) // below R^MIN: a slow PM takes more than its W_j = 4
	type placed struct {
		pm     cluster.PMID
		shapes []vector.V
	}
	rows := []struct {
		name   string
		setup  []placed
		target cluster.PMID
		change func(t *testing.T, pm *cluster.PM, host func(*cluster.PM, vector.V))
		moved  bool // the target's cur changes
		grown  bool // the target's bucket outgrows its room
		// ins and drops are the VMs the re-read counts as come and gone.
		ins, drops int64
	}{
		{
			name:   "cur unchanged, a new shape arrives",
			setup:  []placed{{0, []vector.V{c, c, c, c}}, {2, []vector.V{a}}, {3, []vector.V{a, a}}},
			target: 0,
			change: func(t *testing.T, pm *cluster.PM, host func(*cluster.PM, vector.V)) { host(pm, a) },
			ins:    1,
		},
		{
			name:   "cur unchanged, a shape's last VM leaves",
			setup:  []placed{{0, []vector.V{c, c, c, c, a}}, {2, []vector.V{a}}, {3, []vector.V{a, a}}},
			target: 0,
			change: func(t *testing.T, pm *cluster.PM, _ func(*cluster.PM, vector.V)) {
				evictShape(t, pm, a)
			},
			drops: 1,
		},
		{
			name:   "cur moves with two VMs of one shape",
			setup:  []placed{{2, []vector.V{a, a}}, {3, []vector.V{a, a, a}}, {4, []vector.V{a}}},
			target: 2,
			change: func(t *testing.T, pm *cluster.PM, host func(*cluster.PM, vector.V)) { host(pm, c) },
			moved:  true,
			ins:    1,
		},
		{
			name:   "cur moves down past a host of the kept shape",
			setup:  []placed{{2, []vector.V{a, a, b}}, {3, []vector.V{a, a}}, {4, []vector.V{a}}},
			target: 2,
			change: func(t *testing.T, pm *cluster.PM, _ func(*cluster.PM, vector.V)) {
				evictShape(t, pm, b)
				evictShape(t, pm, a)
			},
			moved: true,
			drops: 2,
		},
		{
			name:   "the PM goes inactive",
			setup:  []placed{{2, []vector.V{a, a}}, {3, []vector.V{a}}},
			target: 2,
			change: func(t *testing.T, pm *cluster.PM, _ func(*cluster.PM, vector.V)) {
				pm.SetState(cluster.PMOff)
			},
		},
		{
			name:   "the bucket grows past cap",
			setup:  []placed{{2, []vector.V{small, small, small, small}}, {3, []vector.V{small, small, small, small, small, small}}, {4, []vector.V{small}}},
			target: 2,
			change: func(t *testing.T, pm *cluster.PM, host func(*cluster.PM, vector.V)) {
				host(pm, small)
				host(pm, small)
				host(pm, a)
			},
			moved: true,
			grown: true,
			ins:   3,
		},
		{
			// The target's VMs are IDs 1-6. Below, above and between the
			// kept ones VMs come and go, and ID 2 comes back as another
			// object of another shape: the merge must walk both buckets to
			// the end and match by identity, not by ID. cur and the set of
			// shapes stay, so only the bucket can go wrong.
			name:   "VMs come and go interleaved by ID",
			setup:  []placed{{0, []vector.V{c, a, c, b, c, c}}, {2, []vector.V{a}}, {3, []vector.V{a, a}}, {4, []vector.V{b}}},
			target: 0,
			change: func(t *testing.T, pm *cluster.PM, _ func(*cluster.PM, vector.V)) {
				for _, id := range []cluster.VMID{2, 4} {
					if err := pm.Evict(pm.VM(id)); err != nil {
						t.Fatal(err)
					}
				}
				for _, v := range []struct {
					id    cluster.VMID
					shape vector.V
				}{{0, a}, {2, b}, {40, a}} {
					vm := cluster.NewVM(v.id, v.shape.Clone(), 40000, 40000, 0)
					if err := pm.Host(vm); err != nil {
						t.Fatal(err)
					}
					vm.State = cluster.VMRunning
				}
			},
			ins:   3,
			drops: 2,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dc := cluster.TableIIFleetScaled(8)
			for _, pm := range dc.PMs() {
				pm.SetState(cluster.PMOn)
			}
			nextID := cluster.VMID(1)
			host := func(pm *cluster.PM, shape vector.V) {
				t.Helper()
				vm := cluster.NewVM(nextID, shape.Clone(), 40000, 40000, 0)
				nextID++
				if err := pm.Host(vm); err != nil {
					t.Fatal(err)
				}
				vm.State = cluster.VMRunning
			}
			for _, p := range row.setup {
				for _, shape := range p.shapes {
					host(dc.PM(p.pm), shape)
				}
			}
			ctx := &Context{DC: dc, Now: 7200, Obs: obs.New()}
			ro := ctx.syncRoster()
			if err := ctx.diffRoster(); err != nil {
				t.Fatalf("cold build: %v", err)
			}
			before := ro.pms[row.target]

			row.change(t, dc.PM(row.target), host)
			ctx.syncRoster()
			if err := ctx.diffRoster(); err != nil {
				t.Fatal(err)
			}
			ins, drops := ctx.Obs.Counter("core.roster_inserts").Value(), ctx.Obs.Counter("core.roster_drops").Value()
			if ins != row.ins || drops != row.drops {
				t.Errorf("the re-read counts %d inserts, %d drops; want %d, %d", ins, drops, row.ins, row.drops)
			}
			after := ro.pms[row.target]
			if moved := after.cur != before.cur; moved != row.moved {
				t.Fatalf("degenerate row: cur %g -> %g, want moved %v", before.cur, after.cur, row.moved)
			}
			if grown := after.cap > before.cap; grown != row.grown {
				t.Fatalf("degenerate row: cap %d -> %d, want grown %v", before.cap, after.cap, row.grown)
			}
			if row.moved && !crossed(ro, row.target, before.cur, after.cur) {
				t.Fatalf("degenerate row: PM %d's cur moves past no other host of a shape it keeps", row.target)
			}
		})
	}
}

// evictShape evicts one VM of the given shape from pm.
func evictShape(t *testing.T, pm *cluster.PM, shape vector.V) {
	t.Helper()
	for _, vm := range pm.VMs() {
		if vm.Demand.Equal(shape) {
			if err := pm.Evict(vm); err != nil {
				t.Fatal(err)
			}
			vm.State = cluster.VMFinished
			return
		}
	}
	t.Fatalf("PM %d holds no VM of shape %v", pm.ID, shape)
}

// crossed reports whether some shape on PM id has another host whose cur
// lies between from and to (inclusive), so the PM's place in that shape's
// host order differs between the two.
func crossed(ro *roster, id cluster.PMID, from, to float64) bool {
	lo, hi := min(from, to), max(from, to)
	for _, e := range ro.bucket(int32(id)) {
		for _, h := range ro.hosts[e.shape] {
			if h != int32(id) && ro.pms[h].cur >= lo && ro.pms[h].cur <= hi {
				return true
			}
		}
	}
	return false
}
