package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// sortedShortlist is the shortlist's reference: collect every positive
// member other than skip, sort the lot by (probability desc, PM ID asc) and
// truncate to k (k <= 0: all).
func sortedShortlist(x *candIndex, sh *candShape, skip int32, vir []float64, k int) []Placement {
	var out []Placement
	for gi := range sh.groups {
		g := &sh.groups[gi]
		p := g.value(vir[g.key.ci])
		if p <= 0 {
			continue
		}
		for _, id := range g.members {
			if id != skip {
				out = append(out, Placement{PM: x.pms[id], Probability: p})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].PM.ID < out[j].PM.ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func samePlacements(a, b []Placement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PM != b[i].PM || math.Float64bits(a[i].Probability) != math.Float64bits(b[i].Probability) {
			return false
		}
	}
	return true
}

// TestShortlistMatchesSortThenTruncate holds the bounded top-k shortlist to
// the reference on random score groups whose values are drawn from a few
// levels, so groups of different classes tie; the column's host is skipped
// in some trials, and k runs over 0, 1, a short list and past the member
// count.
func TestShortlistMatchesSortThenTruncate(t *testing.T) {
	rng := stats.NewRand(5)
	levels := []float64{0, 0.25, 0.5, 1}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(16)
		x := &candIndex{pms: make([]*cluster.PM, n)}
		for id := range x.pms {
			x.pms[id] = &cluster.PM{ID: cluster.PMID(id)}
		}
		sh := &candShape{groups: make([]candGroup, 1+rng.Intn(5))}
		for gi := range sh.groups {
			key := candKey{ci: int32(rng.Intn(2)), rel: math.Float64bits(levels[1+rng.Intn(3)]), price: math.Float64bits(1)}
			sh.groups[gi] = newCandGroup(key, levels[rng.Intn(4)])
		}
		for id := 0; id < n; id++ { // each PM in at most one group, IDs ascending
			if gi := rng.Intn(len(sh.groups) + 1); gi < len(sh.groups) {
				sh.groups[gi].members = append(sh.groups[gi].members, int32(id))
			}
		}
		vir := []float64{levels[rng.Intn(4)], levels[rng.Intn(4)]}
		skip := int32(-1)
		if rng.Intn(2) == 0 {
			skip = int32(rng.Intn(n))
		}
		for _, k := range []int{0, 1, 2, 3, n, n + 3} {
			got := x.shortlist(sh, skip, vir, k)
			if want := sortedShortlist(x, sh, skip, vir, k); !samePlacements(got, want) {
				t.Fatalf("trial %d, k = %d, skip %d:\ngot  %v\nwant %v", trial, k, skip, got, want)
			}
		}
	}
}

// TestShortlistOnFleet is the same comparison on a Table II fleet's own
// candidate index, for every placed VM's column.
func TestShortlistOnFleet(t *testing.T) {
	ctx, vms := tableIIState(t, 60, 150, 3)
	x := ctx.candidates()
	for _, vm := range vms {
		sh := x.shape(ctx.shapeID(vm.Demand))
		vir := ctx.appendVirs(nil, vm)
		for _, k := range []int{0, 1, 3, 4, len(x.pms)} {
			got := x.shortlist(sh, int32(vm.Host), vir, k)
			if want := sortedShortlist(x, sh, int32(vm.Host), vir, k); !samePlacements(got, want) {
				t.Fatalf("VM %d, k = %d:\ngot  %v\nwant %v", vm.ID, k, got, want)
			}
		}
	}
}

// arrivalShortlistAllocCeiling is ArrivalShortlist's budget at k = 3 on a
// warm Context handed its run's list: the result slice the bounded top-k
// returns, nothing else.
const arrivalShortlistAllocCeiling = 1

func TestArrivalShortlistAllocBudget(t *testing.T) {
	ctx, _ := tableIIState(t, 200, 400, 7)
	arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)
	factors := DefaultFactors()
	if out := ArrivalShortlist(ctx, factors, arrival, 3); len(out) != 3 {
		t.Fatalf("ArrivalShortlist = %v", out)
	}
	avg := testing.AllocsPerRun(200, func() {
		ArrivalShortlist(ctx, factors, arrival, 3)
	})
	if avg > arrivalShortlistAllocCeiling {
		t.Errorf("ArrivalShortlist allocates %.1f times at k = 3, budget %d", avg, arrivalShortlistAllocCeiling)
	}
}
