package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// This file implements the candidate index every run's factor list is
// evaluated on: a headroom/class grouping of the fleet that lets the
// arrival argmax and the consolidation columns score a handful of
// score-groups instead of all M PMs (DESIGN.md §13).
//
// The key observation is that for the factor list
// (res, vir, rel, eff, price) the non-host cell value
//
//	p = (((p_vir * p_rel) * p_eff) * p_price)
//
// depends on the PM only through (class, reliability bits, prospective
// utilization level for the column's demand shape, price bits) plus the
// feasibility predicate. Every feasible PM sharing that signature has a
// bit-identical p for every column of the shape, so the fleet collapses
// into score groups: per demand shape, a map from the signature to the
// sorted ID list of its member PMs. The dense argmax with its ID-order
// tie-break becomes "max p over groups, tie to the lowest member ID" — the
// same answer, computed over G groups instead of M rows. A list of the
// covered family that drops a factor (form) has it at 1 in every group.
//
// The index is owned by a Context (not safe for concurrent use, like the
// rest of the Context's scratch) and is maintained incrementally: it
// subscribes to the datacenter's change feed (cluster.Feed), which names
// every PM written to since the last look, and a sync pass re-derives group
// membership for those PMs only, in ascending ID order. Re-deriving one PM
// costs O(shapes) feasibility and level evaluations; a consolidation move
// leaves its two endpoints in the feed and nothing else.
//
// MatrixOptions.CandidateK is a declared ceiling, not a structural cap:
// when a shape's population needs more than K non-empty groups the scan
// simply covers them all — exactness is never traded away. Overflow past a
// positive K is counted on ctx.Obs ("core.sparse_shape_overflow").

// candIndex is the fleet-wide score-group index. One per Context, built
// lazily by Context.candidates.
type candIndex struct {
	ctx *Context

	// pms is the full fleet in ID order; PM IDs are dense (0..M-1 by
	// construction in cluster.New), so per-PM caches are plain slices.
	pms []*cluster.PM

	// feed names the PMs written to since the last sync, whose groups
	// must be re-derived. A fresh index has no shapes, and tracking a shape
	// does its own pass over the whole fleet, so nothing written before
	// the subscription is stale.
	feed *cluster.Feed

	// shapes holds the grouping of every tracked demand shape, indexed by
	// the Context's shape id (nil: not tracked yet); shapeList lists the
	// tracked ones in first-tracked order. Classes are the Context's class
	// ids.
	shapes    []*candShape
	shapeList []*candShape
}

// candKey identifies a score group within a shape. Its rel and price are
// the bits of the members' shared reliability and price term, which the
// group's values read back.
type candKey struct {
	ci    int32  // Context class id
	level int32  // prospective utilization level for the shape's demand, 0 without p_eff
	rel   uint64 // reliability bits
	price uint64 // price term bits
}

// candGroup is one score group: the PMs sharing a bit-identical non-host
// probability for every column of the shape.
type candGroup struct {
	key    candKey
	effVal float64 // the shared p_eff value
	top    float64 // the shared product (rel * eff) * price the sweep bounds by (bound.go)
	// members holds the group's PM IDs in ascending order; the head is
	// the dense tie-break winner (rows are ID-sorted), with the column's
	// host — present in at most one group — skipped to its successor.
	members []int32
}

func newCandGroup(key candKey, effVal float64) candGroup {
	return candGroup{key: key, effVal: effVal, top: math.Float64frombits(key.rel) * effVal * math.Float64frombits(key.price)}
}

// value is the non-host probability the group's members share for a
// column whose p_vir against the group's class is vir: cell order,
// ((p_vir * p_rel) * p_eff) * p_price. Every operand is finite and
// non-negative, so a zero factor yields the same +0 the per-cell short
// circuits return.
func (g *candGroup) value(vir float64) float64 {
	return vir * math.Float64frombits(g.key.rel) * g.effVal * math.Float64frombits(g.key.price)
}

// candidate returns the member of g that the scan of a column hosted on PM
// host considers — the lowest ID, with the host (present in at most one
// group) skipped to its successor — or -1 when the group offers the column
// nobody.
func (g *candGroup) candidate(host int32) int32 {
	m := g.members
	switch {
	case len(m) == 0:
		return -1
	case m[0] != host:
		return m[0]
	case len(m) < 2:
		return -1
	}
	return m[1]
}

// candShape is the per-demand-shape grouping.
type candShape struct {
	id       int32 // Context shape id
	demand   vector.V
	groups   []candGroup
	byKey    map[candKey]int32
	groupOf  []int32 // per PM ID: group index, or -1 when excluded
	nonEmpty int     // count of non-empty groups (the K contract)

	// top is per-round scratch for the lazy rounds' sweep (bound.go).
	top shapeTop
}

// candidates returns the Context's candidate index, synced to the current
// fleet state and price terms.
func (ctx *Context) candidates() *candIndex {
	ctx.syncPrices()
	if ctx.cand == nil {
		ctx.cand = newCandIndex(ctx)
	}
	ctx.cand.sync()
	return ctx.cand
}

func newCandIndex(ctx *Context) *candIndex {
	pms := ctx.DC.PMs()
	for i, pm := range pms {
		if int(pm.ID) != i {
			panic(fmt.Sprintf("core: candidate index needs dense PM IDs (slot %d holds PM %d)", i, pm.ID))
		}
	}
	return &candIndex{ctx: ctx, pms: pms, feed: ctx.DC.Subscribe()}
}

// sync re-derives group membership for every PM the feed names, in
// ascending ID order, so a new group's number does not depend on the order
// of the writes.
func (x *candIndex) sync() {
	ids := x.feed.Take()
	slices.Sort(ids)
	for _, id := range ids {
		x.resyncPM(int32(id))
	}
}

// resyncPM recomputes pm's group in every tracked shape, moving it between
// member lists where the (feasibility, class, level, reliability, price)
// signature changed. A PM whose signature is its group's key stays without
// a lookup: only a group change hashes the key.
func (x *candIndex) resyncPM(id int32) {
	pm := x.pms[id]
	for _, sh := range x.shapeList {
		key, effVal, ok := x.membership(pm, sh.demand)
		og := sh.groupOf[id]
		if ok && og >= 0 && sh.groups[og].key == key {
			continue
		}
		ng := int32(-1)
		if ok {
			ng = sh.groupIdx(key, effVal)
		}
		if og == ng {
			continue
		}
		if og >= 0 {
			sh.removeMember(og, id)
		}
		if ng >= 0 {
			sh.addMember(ng, id)
		}
		sh.groupOf[id] = ng
	}
}

// membership computes pm's score-group key and p_eff for a demand shape,
// or ok = false when every column of the shape scores 0 on pm (infeasible,
// zero reliability, a zero efficiency term or a zero price) and the PM
// stays out of the shape's groups entirely. A factor the Context's form
// drops is 1 and excludes nobody.
func (x *candIndex) membership(pm *cluster.PM, demand vector.V) (key candKey, effVal float64, ok bool) {
	if !pm.CanHost(demand) {
		return key, 0, false
	}
	ctx := x.ctx
	rel, price := 1.0, 1.0
	if !ctx.form.noRel {
		if rel = pm.Reliability(); rel == 0 {
			return key, 0, false
		}
	}
	ci, level, effVal := ctx.classID(pm), 0, 1.0
	if !ctx.form.noEff {
		info := ctx.classTab[ci]
		if info.wj == 0 {
			return key, 0, false
		}
		level = levelOf(info, pm.UtilizationWith(demand))
		if effVal = info.effVal[level]; effVal == 0 {
			return key, 0, false
		}
	}
	if ctx.form.price != nil {
		if price = ctx.prices[pm.ID]; price == 0 {
			return key, 0, false
		}
	}
	return candKey{ci: ci, level: int32(level), rel: math.Float64bits(rel), price: math.Float64bits(price)}, effVal, true
}

// shape returns the grouping of the demand shape with Context id sid,
// tracking it first when nothing has asked for it yet.
func (x *candIndex) shape(sid int32) *candShape {
	if int(sid) < len(x.shapes) && x.shapes[sid] != nil {
		return x.shapes[sid]
	}
	return x.trackShape(sid)
}

// trackShape builds the membership of a not-yet-tracked shape from the live
// fleet in one pass.
func (x *candIndex) trackShape(sid int32) *candShape {
	for int(sid) >= len(x.shapes) {
		x.shapes = append(x.shapes, nil)
	}
	sh := &candShape{
		id:      sid,
		demand:  x.ctx.shapeTab[sid],
		byKey:   make(map[candKey]int32, 16),
		groupOf: make([]int32, len(x.pms)),
	}
	for i := range sh.groupOf {
		sh.groupOf[i] = -1
	}
	for id, pm := range x.pms {
		key, effVal, ok := x.membership(pm, sh.demand)
		if !ok {
			continue
		}
		gi := sh.groupIdx(key, effVal)
		sh.addMember(gi, int32(id))
		sh.groupOf[id] = gi
	}
	x.shapes[sid] = sh
	x.shapeList = append(x.shapeList, sh)
	return sh
}

// groupIdx returns the index of the group keyed key, creating it on first
// use.
func (sh *candShape) groupIdx(key candKey, effVal float64) int32 {
	if gi, ok := sh.byKey[key]; ok {
		return gi
	}
	gi := int32(len(sh.groups))
	sh.groups = append(sh.groups, newCandGroup(key, effVal))
	sh.byKey[key] = gi
	return gi
}

func (sh *candShape) addMember(gi, id int32) {
	g := &sh.groups[gi]
	if len(g.members) == 0 {
		sh.nonEmpty++
	}
	i, _ := searchInt32(g.members, id)
	g.members = append(g.members, 0)
	copy(g.members[i+1:], g.members[i:])
	g.members[i] = id
}

func (sh *candShape) removeMember(gi, id int32) {
	g := &sh.groups[gi]
	i, ok := searchInt32(g.members, id)
	if !ok {
		panic(fmt.Sprintf("core: PM %d missing from its candidate group", id))
	}
	g.members = append(g.members[:i], g.members[i+1:]...)
	if len(g.members) == 0 {
		sh.nonEmpty--
	}
}

// check validates the index's structural invariants for every tracked
// shape: sorted member lists, a consistent groupOf inverse, a true count of
// non-empty groups, and membership signatures that match a fresh
// evaluation of the live fleet.
func (x *candIndex) check() error {
	for si, sh := range x.shapeList {
		nonEmpty := 0
		for gi := range sh.groups {
			g := &sh.groups[gi]
			if len(g.members) > 0 {
				nonEmpty++
			}
			for i, id := range g.members {
				if i > 0 && g.members[i-1] >= id {
					return fmt.Errorf("core: shape %d group %d members out of order", si, gi)
				}
				if sh.groupOf[id] != int32(gi) {
					return fmt.Errorf("core: shape %d PM %d groupOf %d != group %d", si, id, sh.groupOf[id], gi)
				}
			}
		}
		if nonEmpty != sh.nonEmpty {
			return fmt.Errorf("core: shape %d nonEmpty %d, counted %d", si, sh.nonEmpty, nonEmpty)
		}
		for id, pm := range x.pms {
			key, _, ok := x.membership(pm, sh.demand)
			gi := sh.groupOf[id]
			if !ok {
				if gi >= 0 {
					return fmt.Errorf("core: shape %d PM %d grouped but excluded on re-evaluation", si, id)
				}
				continue
			}
			if gi < 0 {
				return fmt.Errorf("core: shape %d PM %d ungrouped but eligible (key %+v)", si, id, key)
			}
			if sh.groups[gi].key != key {
				return fmt.Errorf("core: shape %d PM %d in group %+v, want %+v", si, id, sh.groups[gi].key, key)
			}
		}
	}
	return nil
}

// searchInt32 is a binary search over an ascending []int32.
func searchInt32(s []int32, v int32) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == v
}

// bestArrival is the index's arrival argmax: the PM the dense BestPlacement
// scan would pick for vm, or nil when no PM scores a positive probability —
// a column hosted nowhere with a normalizer of 1 (candShape.best), so the
// score groups, the tie to the lowest member ID and the bit-identity with
// the column scan are the consolidation columns' own.
func (x *candIndex) bestArrival(vm *cluster.VM, k int) *cluster.PM {
	sh := x.shape(x.ctx.shapeID(vm.Demand))
	if k > 0 && sh.nonEmpty > k {
		x.ctx.metrics().overflow.Add(1)
	}
	x.ctx.virBuf = x.ctx.appendVirs(x.ctx.virBuf[:0], vm)
	if id, _ := sh.best(-1, 1, x.ctx.virBuf); id >= 0 {
		return x.pms[id]
	}
	return nil
}

// ArrivalShortlist returns the candidate index's top-k shortlist for placing
// vm — RankPlacements' exact ordering truncated to k. The policy layer's
// ranked arrival alternatives come from here; callers after the argmax
// alone want BestPlacementWith. Like it, it panics on a list outside the
// covered family (Context.index).
func ArrivalShortlist(ctx *Context, factors []Factor, vm *cluster.VM, k int) []Placement {
	x := ctx.index(factors)
	sh := x.shape(ctx.shapeID(vm.Demand))
	ctx.virBuf = ctx.appendVirs(ctx.virBuf[:0], vm)
	return x.shortlist(sh, -1, ctx.virBuf, k)
}

// index returns the candidate index for factors, synced to the fleet. A
// list outside the covered family is a caller's error here — sim.New
// refuses such a list by name before a run evaluates it (CheckFactors) —
// and panics with that name.
func (ctx *Context) index(factors []Factor) *candIndex {
	if err := ctx.use(factors); err != nil {
		panic(err)
	}
	return ctx.candidates()
}

// use points the Context's index and roster at factors' form, or fails
// naming the factor outside the covered family. A run evaluates one list,
// the same slice on every arrival and pass, so its form is read once: the
// list it was read from is kept, and handing that list again reads
// nothing. A Context handed another list reads that one's form, and one
// of another form drops its index, roster and price terms, which the next
// evaluation rebuilds cold for the new list.
func (ctx *Context) use(factors []Factor) error {
	if n := len(factors); n > 0 && n == len(ctx.factors) && &factors[0] == &ctx.factors[0] {
		return nil
	}
	f, err := formOf(factors)
	if err != nil {
		return err
	}
	if f != ctx.form {
		ctx.form, ctx.cand, ctx.roster, ctx.prices = f, nil, nil, nil
	}
	ctx.factors = factors
	return nil
}

// syncPrices re-reads every PM's price term when the form has one and the
// clock has moved since the last read — the term is its region's price at
// the clock — and names each PM whose price bits changed in the index's and
// the roster's feeds, so both re-derive it at their next sync. Static
// prices (FlatPrices) name nobody after the first read.
func (ctx *Context) syncPrices() {
	if ctx.form.price != nil && (ctx.prices == nil || ctx.pricedAt != ctx.Now) {
		ctx.readPrices()
	}
}

// readPrices is syncPrices' read, kept out of line so the check inlines.
func (ctx *Context) readPrices() {
	f, pms := ctx.form.price, ctx.DC.PMs()
	fresh := ctx.prices == nil
	if fresh {
		ctx.prices = make([]float64, len(pms))
	}
	for i, pm := range pms {
		p, was := f.Probability(ctx, nil, pm, false), ctx.prices[i]
		ctx.prices[i] = p
		if fresh || math.Float64bits(p) == math.Float64bits(was) {
			continue
		}
		if ctx.cand != nil {
			ctx.cand.feed.Add(pm.ID)
		}
		if ctx.roster != nil {
			ctx.roster.feed.Add(pm.ID)
		}
	}
	ctx.pricedAt = ctx.Now
}

// countOverflow is bestArrival's overflow diagnostic for a pass,
// after its first sweep: one count per Running column, walked in the
// roster's buckets, whose shape needs more than k non-empty groups.
func (x *candIndex) countOverflow(ro *roster, k int) {
	overflow := int64(0)
	for sid, hosts := range ro.hosts {
		if len(hosts) == 0 || x.shape(int32(sid)).nonEmpty <= k {
			continue
		}
		for _, h := range hosts {
			for _, e := range ro.bucket(h) {
				if e.shape == int32(sid) && e.vm.State == cluster.VMRunning {
					overflow++
				}
			}
		}
	}
	if overflow > 0 {
		x.ctx.metrics().overflow.Add(overflow)
	}
}

// best is a column's best non-host alternative among sh's score groups,
// for a column hosted on PM host with normalizer cur and p_vir vir[ci]
// against class ci: the lowest-ID member maximizing the probability when
// cur is positive, or the lowest-ID member with any positive probability
// for a +Inf rescue column — exactly the dense column scan's rules. id is
// -1 (and p 0) when no group offers the column anybody.
func (sh *candShape) best(host int32, cur float64, vir []float64) (id int32, p float64) {
	id = -1
	for gi := range sh.groups {
		g := &sh.groups[gi]
		cand := g.candidate(host)
		if cand < 0 {
			continue
		}
		q := g.value(vir[g.key.ci])
		if cur > 0 {
			if q > p || (q == p && id >= 0 && cand < id) {
				p, id = q, cand
			}
		} else if q > 0 && (id < 0 || cand < id) {
			p, id = q, cand
		}
	}
	return id, p
}

// appendVirs appends vm's p_vir (Eq. 3) at the Context's clock against
// every class of the class table, each with its target-side overhead — 1
// for every class when the form has no p_vir.
func (ctx *Context) appendVirs(dst []float64, vm *cluster.VM) []float64 {
	if ctx.form.noVir {
		for range ctx.classTab {
			dst = append(dst, 1)
		}
		return dst
	}
	tre := vm.RemainingEstimate(ctx.Now)
	for _, info := range ctx.classTab {
		dst = append(dst, virProbability(tre, info.virOverhead(vm)))
	}
	return dst
}

// shortlist returns every member of sh's groups other than skip whose
// probability is positive, vir[ci] being the column's p_vir against class
// ci, ordered exactly as RankPlacements orders them (probability
// descending, ID ascending) and truncated to at most k entries (k <= 0:
// all), in a fresh slice. It is the top-K shortlist of DESIGN.md §13; the
// property tests assert it always contains the dense argmax and, when k
// covers the whole feasible set, equals the dense ranking outright.
//
// For k > 0 it keeps the best k seen so far in order, inserting each member
// by a bounded insertion, instead of collecting and sorting them all. The
// order is total (IDs are unique), so the result is sort-then-truncate's
// exactly. A group's members share its probability and ascend by ID, so
// once one of them misses a full list the rest of the group does too.
func (x *candIndex) shortlist(sh *candShape, skip int32, vir []float64, k int) []Placement {
	var out []Placement
	for gi := range sh.groups {
		g := &sh.groups[gi]
		p := g.value(vir[g.key.ci])
		if p <= 0 {
			continue
		}
		for _, id := range g.members {
			if id == skip {
				continue
			}
			pl := Placement{PM: x.pms[id], Probability: p}
			if k <= 0 {
				out = append(out, pl)
				continue
			}
			i := len(out)
			if i == k {
				if comparePlacements(pl, out[k-1]) >= 0 {
					break
				}
				i-- // pl takes the last entry's place
			} else {
				if out == nil {
					out = make([]Placement, 0, min(k, len(x.pms)))
				}
				out = append(out, pl)
			}
			for ; i > 0 && comparePlacements(pl, out[i-1]) < 0; i-- {
				out[i] = out[i-1]
			}
			out[i] = pl
		}
	}
	if k <= 0 {
		slices.SortFunc(out, comparePlacements)
	}
	return out
}

// alternatives is what MoveAlternatives keeps for a consolidation column:
// the shortlist with each probability normalized by cur, collapsing to the
// single rescue PM best (none when best < 0) at +Inf gain when cur is not
// positive.
func (x *candIndex) alternatives(sh *candShape, host int32, cur float64, vir []float64, best int32, k int) []Placement {
	if !(cur > 0) {
		if best < 0 {
			return nil
		}
		return []Placement{{PM: x.pms[best], Probability: math.Inf(1)}}
	}
	out := x.shortlist(sh, host, vir, k)
	for i := range out {
		out[i].Probability /= cur
	}
	return out
}

// comparePlacements is the ranking order: probability descending, then PM
// ID ascending.
func comparePlacements(a, b Placement) int {
	if c := cmp.Compare(b.Probability, a.Probability); c != 0 {
		return c
	}
	return cmp.Compare(a.PM.ID, b.PM.ID)
}
