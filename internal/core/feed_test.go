package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// TestMissedFeedEntryFailsByName: the roster and the candidate index learn
// of a write only from their change feeds, so a feed entry lost before a
// sync leaves that PM stale, and each one's differential — CheckColumns for
// the roster, check for the index — must name it. A write the feed does
// name passes both first. The cold roster diffRoster builds on every
// audited pass must not subscribe, or each later bump would pay for it,
// and diffRoster holds the roster's count of inactive PMs holding VMs to
// the cold build's.
func TestMissedFeedEntryFailsByName(t *testing.T) {
	ctx, _ := spreadState(t, 16, 30, 3)
	ro := ctx.syncRoster()
	if newRoster(ctx).feed != nil {
		t.Fatal("a cold roster subscribed to the change feed")
	}
	ro.offline++
	if err := ctx.diffRoster(); err == nil || !strings.Contains(err.Error(), "inactive PMs") {
		t.Fatalf("diffRoster with the offline count off by one = %v", err)
	}
	ro.offline--
	demand := ctx.DC.RMinShared()
	pm := roomFor(t, ctx, 2)[0]
	want := fmt.Sprintf("PM %d ", pm.ID)
	for i, drop := range []bool{false, true} {
		vm := cluster.NewVM(cluster.VMID(1000+i), demand, 600, 600, 0)
		if err := pm.Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
		if drop {
			ro.feed.Take()
		}
		err := ctx.CheckColumns()
		if !drop && err != nil {
			t.Fatalf("a host the feed names: %v", err)
		}
		if drop && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Fatalf("a host the roster's feed lost: CheckColumns = %v, want an error naming %q", err, want)
		}
	}

	ctx, _ = spreadState(t, 16, 30, 3)
	x := ctx.candidates()
	x.shape(ctx.shapeID(demand))
	pm = roomFor(t, ctx, 1)[0]
	want = fmt.Sprintf("PM %d ", pm.ID)
	for _, drop := range []bool{false, true} {
		pm.SetReliability(pm.Reliability() / 2)
		if drop {
			x.feed.Take()
		} else {
			ctx.candidates()
		}
		err := x.check()
		if !drop && err != nil {
			t.Fatalf("a reliability change the feed names: %v", err)
		}
		if drop && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Fatalf("a reliability change the index's feed lost: check = %v, want an error naming %q", err, want)
		}
	}
}

// roomFor returns the PMs with room for n more VMs at R^MIN, ID ascending;
// there must be two.
func roomFor(t *testing.T, ctx *Context, n int) []*cluster.PM {
	t.Helper()
	need := ctx.DC.RMinShared().Clone()
	for i := range need {
		need[i] *= float64(n)
	}
	var out []*cluster.PM
	for _, pm := range ctx.DC.PMs() {
		if pm.CanHost(need) {
			out = append(out, pm)
		}
	}
	if len(out) < 2 {
		t.Fatalf("%d PMs have room for %d VMs at R^MIN, want 2", len(out), n)
	}
	return out
}

// TestSyncIgnoresWriteOrder: a sync re-reads the PMs its feed names in
// ascending ID order, whatever order the writes came in, so twin fleets
// written to in opposite orders number new score groups and intern new
// demand shapes alike. Each of two PMs takes a reliability no other PM has
// (a new group in every tracked shape) and a VM of a demand never seen (a
// new shape for the roster to intern).
func TestSyncIgnoresWriteOrder(t *testing.T) {
	var twins [2]*candIndex
	for i := range twins {
		ctx, vms := spreadState(t, 16, 30, 3)
		x := indexOf(ctx, vms) // interns the fleet's shapes in VM order
		ctx.syncRoster()
		pms := roomFor(t, ctx, 2)[:2]
		order := []int{0, 1}
		if i == 1 {
			order = []int{1, 0}
		}
		for _, rank := range order {
			pm := pms[rank]
			pm.SetReliability(0.5 + 0.1*float64(rank))
			vm := cluster.NewVM(cluster.VMID(1000+rank), vector.New(1, 0.375*float64(1+rank)), 600, 600, 0)
			if err := pm.Host(vm); err != nil {
				t.Fatal(err)
			}
			vm.State = cluster.VMRunning
		}
		ctx.candidates()
		ctx.syncRoster()
		twins[i] = x
	}
	if err := diffIndex(twins[0], twins[1]); err != nil {
		t.Errorf("score groups depend on write order: %v", err)
	}
	a, b := twins[0].ctx.shapeTab, twins[1].ctx.shapeTab
	if !slices.EqualFunc(a, b, vector.V.Equal) {
		t.Errorf("interned shapes depend on write order: %v vs %v", a, b)
	}
}

// indexOf syncs ctx's candidate index and tracks the shape of every VM of
// vms.
func indexOf(ctx *Context, vms []*cluster.VM) *candIndex {
	x := ctx.candidates()
	for _, vm := range vms {
		x.shape(ctx.shapeID(vm.Demand))
	}
	return x
}

// diffIndex compares two candidate indexes over twin fleets shape by shape:
// tracking order, groups (key, shared values, members), the non-empty count
// and the per-PM groupOf inverse must all be identical. A key's class is
// compared by name, so the two contexts may number their classes apart.
func diffIndex(a, b *candIndex) error {
	className := func(x *candIndex, ci int32) string { return x.ctx.classTab[ci].class.Name }
	if len(a.shapeList) != len(b.shapeList) {
		return fmt.Errorf("%d shapes tracked vs %d", len(a.shapeList), len(b.shapeList))
	}
	for si, sa := range a.shapeList {
		sb := b.shapeList[si]
		if sa.id != sb.id || len(sa.groups) != len(sb.groups) || sa.nonEmpty != sb.nonEmpty {
			return fmt.Errorf("shape %d: id %d, %d groups, %d non-empty vs id %d, %d, %d",
				si, sa.id, len(sa.groups), sa.nonEmpty, sb.id, len(sb.groups), sb.nonEmpty)
		}
		for gi := range sa.groups {
			ga, gb := &sa.groups[gi], &sb.groups[gi]
			ka, kb := ga.key, gb.key
			if className(a, ka.ci) != className(b, kb.ci) || ka.level != kb.level || ka.rel != kb.rel || ka.price != kb.price || ga.effVal != gb.effVal || ga.top != gb.top || !slices.Equal(ga.members, gb.members) {
				return fmt.Errorf("shape %d group %d: %+v %v vs %+v %v", si, gi, ka, ga.members, kb, gb.members)
			}
		}
		if !slices.Equal(sa.groupOf, sb.groupOf) {
			return fmt.Errorf("shape %d: groupOf differs", si)
		}
	}
	return nil
}
