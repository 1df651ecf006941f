// Package core implements the paper's primary contribution: the statistical
// dynamic VM placement scheme of Section III.
//
// The scheme scores every (VM i, PM j) pair with a joint probability
//
//	p_ij = p_ij^res * p_ij^vir * p_ij^rel * p_ij^eff
//
// built from four pluggable factors (resource feasibility, virtualization
// overhead, server reliability, energy efficiency — Eq. 2-5), arranges the
// scores in an M x N probability matrix (Eq. 1), and runs Algorithm 1:
// normalize each column by the probability of the VM's current host, then
// repeatedly migrate the VM with the largest normalized gain above
// MIG_threshold, for at most MIG_round rounds, re-deriving only the two PMs
// a move touched between rounds.
//
// Because p_ij is a product, additional constraints compose by appending a
// Factor — exactly the extensibility the paper advertises ("since the p_ij
// is a joint probability, it is easy to be extended to accommodate other
// constraints in the light of users demand"). A run evaluates the list a
// score group at a time, which takes a per-PM term: PriceFactor is the one
// extension the index carries (CheckFactors names the lists it covers).
package core

import (
	"encoding/binary"
	"math"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/vector"
)

// Context carries the read-only simulation state factors evaluate against.
// Its internal per-class cache assumes the data center's classes and R^MIN
// do not change while the Context lives; under that invariant a single
// Context can be reused across placement events (see NewContext and At),
// which keeps the cache warm on the arrival hot path.
type Context struct {
	// DC is the data center (supplies RMin and eff_j).
	DC *cluster.Datacenter

	// Now is the current simulation time in seconds; the virtualization
	// factor uses it to compute remaining runtimes.
	Now float64

	// Obs, when non-nil, receives phase timings (kernel build, Algorithm 1
	// rounds, arrival argmax) and decision counters from the placement
	// paths. Nil — the default, and what every benchmark uses — keeps the
	// hot paths free of instrumentation beyond a nil check. When it
	// records decisions (DecisionTracing), every consolidation pass also
	// collects its moves' alternatives (MoveAlternatives).
	Obs *obs.Observer

	// SelfAudit holds every consolidation pass on this Context to cold
	// rebuilds: the roster it read against a cold rebuild (roster.go), and
	// every lazy round against a cold dense Matrix (bound.go's checkRound:
	// the index's structure, each column's group scan, the sweep's bounds
	// and the choice). The cold builds are references, never applied, so
	// they do not audit in turn. Expensive (a cold build per round); the
	// simulator sets it in -audit=event mode.
	SelfAudit bool

	// form is the factor list the index and the roster evaluate (kernel.go),
	// set by the entry points (use) and read from the list factors; prices
	// is each PM's price term under a form with one, read at the clock
	// pricedAt (syncPrices).
	form     form
	factors  []Factor
	prices   []float64
	pricedAt float64

	// classTab and shapeTab are the Context-level interning tables
	// (classID, shapeID): one entry per PM class and per distinct demand
	// vector ever evaluated, numbered first-seen. Every per-class constant
	// and every per-shape memo in this package is indexed by these ids.
	classTab []*classInfo
	shapeTab []vector.V
	shapeIdx map[string]int32
	shapeKey []byte
	pass     uint64 // lazy-round sweeps so far; stamps shapeTop.pass

	// minOverhead is the smallest migration overhead in classTab, which
	// bounds every p_vir of a placed VM (virMax).
	minOverhead float64

	// Reusable scratch (scratch.go): fscratch backs dense matrices via
	// checkout, terms backs the arrival column's term program, swept and
	// virBuf a round's surviving columns and one column's p_vir per class
	// (bound.go). Their presence is why a Context is not safe for
	// concurrent use.
	fscratch *matrixScratch
	terms    []term
	swept    []survivor
	virBuf   []float64

	// roster is the placed VMs bucketed by host and shape, with each PM's
	// hosted-cell probability (roster.go), built lazily by the first
	// consolidation pass and afterwards re-reading the PMs its change feed
	// names.
	roster *roster

	// cand is the candidate index (candidates.go), built lazily on the
	// first placement and kept in sync with the fleet through its own
	// change feed.
	cand *candIndex

	// met is the placement paths' metric handles, resolved against Obs
	// (metrics).
	met *ctxMetrics

	// alts is the last consolidation pass's alternative lists, one per
	// move, collected while Obs records decisions (MoveAlternatives).
	alts [][]Placement
}

// MoveAlternatives returns, for each move of the last consolidation pass
// run on the Context (ConsolidateWith), the moved column's ranked non-host
// alternatives: probabilities normalized by the column's current
// placement, so scores are the gains Algorithm 1 compares; the head is the
// chosen target; at most 4 deep. The lists are exact — ordered (gain desc,
// PM ID asc) over every positive alternative, the column's cell-by-cell
// ranking (RankPlacements) without its host. They are collected
// only while Obs records decisions (obs.Observer.DecisionTracing), the
// one reader being policy.Recorder; otherwise the result is empty. Valid
// until the next pass.
func (ctx *Context) MoveAlternatives() [][]Placement { return ctx.alts }

// ctxMetrics holds every counter and span the placement paths feed, each
// resolved on its first use (obs.CounterRef): a pass pays an atomic add per
// metric, not the registry's mutex and map lookup.
type ctxMetrics struct {
	obs *obs.Observer

	collect, build, rounds, prove, arrival obs.SpanRef

	passes, moves, provenEmpty, declined, boundCells, scans, overflow obs.CounterRef
	coldBuilds, resynced, inserts, drops                              obs.CounterRef
}

// metrics returns the Context's metric handles for ctx.Obs, made afresh
// whenever Obs is not the Observer they were made for.
func (ctx *Context) metrics() *ctxMetrics {
	if m := ctx.met; m != nil && m.obs == ctx.Obs {
		return m
	}
	return ctx.remakeMetrics()
}

// remakeMetrics is metrics' slow path, kept out of line so the check
// inlines.
func (ctx *Context) remakeMetrics() *ctxMetrics {
	o := ctx.Obs
	ctx.met = &ctxMetrics{
		obs:         o,
		collect:     o.SpanRef("collect_columns"),
		build:       o.SpanRef("kernel_build"),
		rounds:      o.SpanRef("algo1_rounds"),
		prove:       o.SpanRef("prove_empty"),
		arrival:     o.SpanRef("arrival_place"),
		passes:      o.CounterRef("core.consolidate_passes"),
		moves:       o.CounterRef("core.consolidate_moves"),
		provenEmpty: o.CounterRef("core.passes_proven_empty"),
		declined:    o.CounterRef("core.bound_declined"),
		boundCells:  o.CounterRef("core.bound_cells"),
		scans:       o.CounterRef("core.exact_column_scans"),
		overflow:    o.CounterRef("core.sparse_shape_overflow"),
		coldBuilds:  o.CounterRef("core.roster_cold_builds"),
		resynced:    o.CounterRef("core.roster_resynced_pms"),
		inserts:     o.CounterRef("core.roster_inserts"),
		drops:       o.CounterRef("core.roster_drops"),
	}
	return ctx.met
}

// classInfo holds the per-class constants of Section III.B.4: one entry of
// the Context's class table.
type classInfo struct {
	class    *cluster.PMClass
	wj       int     // W_j: max minimal VMs the class can host
	umin     float64 // U_j^MIN: utilization with one minimal VM
	eff      float64 // eff_j: relative power efficiency
	invK     float64 // 1/K for inverting the level partition
	overhead float64 // T_cre + T_mig for the virtualization factor

	// effVal[l] = float64(l) / float64(W_j) * eff_j for l in 1..W_j —
	// exactly effProbability's return expression, so the sparse index's
	// group values match the dense cells bit-for-bit. Nil when W_j == 0.
	effVal []float64
}

// virOverhead is the target-side overhead vm pays on a PM of this class
// (Eq. 3): creation plus transfer for a migration, creation only for the
// initial placement of a not-yet-hosted VM — there is nothing to transfer
// yet.
func (info *classInfo) virOverhead(vm *cluster.VM) float64 {
	if vm.Host == cluster.NoPM {
		return info.class.CreationTime
	}
	return info.overhead
}

// NewContext returns a reusable Context for dc. Callers that process many
// placement events (the simulator's arrival and consolidation paths) should
// build one Context per run and advance it with At, so the per-class cache
// survives across events instead of being rebuilt M times per event.
func NewContext(dc *cluster.Datacenter) *Context {
	return &Context{DC: dc}
}

// At updates the Context's clock and returns it, for chaining:
//
//	placer.Place(ctx.At(engine.Now()), vm)
//
// The per-class cache is retained; it only depends on the fleet's classes
// and R^MIN, not on time.
func (ctx *Context) At(now float64) *Context {
	ctx.Now = now
	return ctx
}

// classID interns pm's class in the Context's class table and returns its
// id. A fleet has a handful of classes (Table II has 2), so the lookup is
// a pointer scan, not a hash.
func (ctx *Context) classID(pm *cluster.PM) int32 {
	for ci, info := range ctx.classTab {
		if info.class == pm.Class {
			return int32(ci)
		}
	}
	rmin := ctx.DC.RMinShared()
	info := &classInfo{
		class:    pm.Class,
		wj:       pm.Class.MaxMinimalVMs(rmin),
		umin:     vector.Utilization(rmin, pm.Class.Capacity),
		eff:      ctx.DC.Efficiency(pm),
		overhead: pm.Class.CreationTime + pm.Class.MigrationTime,
	}
	if k := rmin.Dim(); k > 0 {
		info.invK = 1 / float64(k)
	}
	if info.wj > 0 {
		info.effVal = make([]float64, info.wj+1)
		for l := 1; l <= info.wj; l++ {
			info.effVal[l] = float64(l) / float64(info.wj) * info.eff
		}
	}
	if len(ctx.classTab) == 0 || info.overhead < ctx.minOverhead {
		ctx.minOverhead = info.overhead
	}
	ctx.classTab = append(ctx.classTab, info)
	return int32(len(ctx.classTab) - 1)
}

func (ctx *Context) classInfoFor(pm *cluster.PM) *classInfo {
	return ctx.classTab[ctx.classID(pm)]
}

// shapeID interns a demand vector in the Context's shape table, keyed on
// the exact bit patterns so per-shape memos are bit-identical to a
// per-cell evaluation, and returns its id. Real workloads request a
// handful of standard shapes (the Table II workload has 8), so per-row
// feasibility and efficiency collapse from N columns to D shapes.
func (ctx *Context) shapeID(demand vector.V) int32 {
	key := ctx.shapeKey[:0]
	for _, x := range demand {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
	}
	ctx.shapeKey = key
	if id, ok := ctx.shapeIdx[string(key)]; ok {
		return id
	}
	if ctx.shapeIdx == nil {
		ctx.shapeIdx = make(map[string]int32, 16)
	}
	id := int32(len(ctx.shapeTab))
	ctx.shapeIdx[string(key)] = id
	ctx.shapeTab = append(ctx.shapeTab, demand.Clone())
	return id
}

// Factor computes one conditional probability p_ij^xxx of hosting vm on pm.
// Implementations must be pure with respect to the passed state: factors
// are re-evaluated incrementally as the migration algorithm mutates
// placements, so any hidden caching would go stale.
//
// hosted reports whether pm is vm's current host; several of the paper's
// factors special-case that ("if the VM i is already hosted in the PM j
// ... the probability is 1").
type Factor interface {
	// Name identifies the factor in ablation reports ("res", "vir",
	// "rel", "eff").
	Name() string

	// Probability returns p_ij^xxx in [0, 1].
	Probability(ctx *Context, vm *cluster.VM, pm *cluster.PM, hosted bool) float64
}

// DefaultFactors returns the paper's four factors in evaluation order.
func DefaultFactors() []Factor {
	return []Factor{ResourceFactor{}, VirtualizationFactor{}, ReliabilityFactor{}, EfficiencyFactor{}}
}

// Joint evaluates the product of factors for (vm, pm), short-circuiting on
// the first zero.
func Joint(ctx *Context, factors []Factor, vm *cluster.VM, pm *cluster.PM, hosted bool) float64 {
	p := 1.0
	for _, f := range factors {
		p *= f.Probability(ctx, vm, pm, hosted)
		if p == 0 {
			return 0
		}
	}
	return p
}

// ResourceFactor is p_ij^res (Eq. 2): 1 when PM j has sufficient free
// resources for VM i, else 0. The current host trivially satisfies it.
type ResourceFactor struct{}

// Name implements Factor.
func (ResourceFactor) Name() string { return "res" }

// Probability implements Factor.
func (ResourceFactor) Probability(_ *Context, vm *cluster.VM, pm *cluster.PM, hosted bool) float64 {
	if hosted {
		return 1
	}
	if pm.CanHost(vm.Demand) {
		return 1
	}
	return 0
}

// VirtualizationFactor is p_ij^vir (Eq. 3): 1 for the current host;
// otherwise the quadratic penalty ((T_re - T_cre - T_mig) / T_re)^2 when
// the remaining runtime exceeds the combined creation and migration
// overheads of the target PM, else 0. The quadratic form makes the
// probability fall off faster as the remaining time shrinks: a VM about to
// finish is not worth moving, because it will release its resources on its
// own.
type VirtualizationFactor struct{}

// Name implements Factor.
func (VirtualizationFactor) Name() string { return "vir" }

// Probability implements Factor.
func (VirtualizationFactor) Probability(ctx *Context, vm *cluster.VM, pm *cluster.PM, hosted bool) float64 {
	if hosted {
		return 1
	}
	return virProbability(vm.RemainingEstimate(ctx.Now), ctx.classInfoFor(pm).virOverhead(vm))
}

// virProbability is the Eq. 3 penalty for remaining estimate tre against a
// target-side overhead. It is shared by VirtualizationFactor and the
// factored kernel's per-(column, class) memo so the two paths are
// bit-identical by construction.
func virProbability(tre, overhead float64) float64 {
	if tre <= 0 {
		return 0
	}
	q := (tre - overhead) / tre
	if q <= 0 {
		return 0
	}
	return q * q
}

// ReliabilityFactor is p_ij^rel (Section III.B.3): the PM's reliability
// probability, independent of the VM.
type ReliabilityFactor struct{}

// Name implements Factor.
func (ReliabilityFactor) Name() string { return "rel" }

// Probability implements Factor.
func (ReliabilityFactor) Probability(_ *Context, _ *cluster.VM, pm *cluster.PM, _ bool) float64 {
	return pm.Reliability()
}

// EfficiencyFactor is p_ij^eff (Eq. 4-5): the PM's prospective utilization
// level after hosting the VM, scaled by the class's relative power
// efficiency:
//
//	p_ij^eff = (w_j / W_j) * eff_j
//
// For the current host the PM's present utilization already includes the
// VM. A PM that cannot host even one minimal VM has W_j = 0 and scores 0.
// Higher levels score higher, which is what drives consolidation: VMs
// gravitate toward already-busy, power-efficient machines, starving idle
// PMs until the spare-server controller can switch them off.
type EfficiencyFactor struct{}

// Name implements Factor.
func (EfficiencyFactor) Name() string { return "eff" }

// Probability implements Factor.
func (EfficiencyFactor) Probability(ctx *Context, vm *cluster.VM, pm *cluster.PM, hosted bool) float64 {
	info := ctx.classInfoFor(pm)
	var u float64
	if hosted {
		u = pm.Utilization()
	} else {
		u = pm.UtilizationWith(vm.Demand)
	}
	return effProbability(info, u)
}

// effProbability is Eq. 4-5 for a PM of the given class at utilization u.
// It is shared by EfficiencyFactor and the factored kernel so the two
// paths are bit-identical by construction.
func effProbability(info *classInfo, u float64) float64 {
	if info.wj == 0 {
		return 0
	}
	return float64(levelOf(info, u)) / float64(info.wj) * info.eff
}

// levelOf inverts the level partition of Eq. 4 for a class at utilization
// u, returning the level in {1, ..., W_j}. It is the single source of the
// level arithmetic: effProbability and the sparse candidate index
// (candidates.go) both call it, so a PM's score group and its dense cell
// value agree bit-for-bit by construction. Callers must ensure
// info.wj > 0.
func levelOf(info *classInfo, u float64) int {
	// Eq. 5 draws w_j from {1, ..., W_j}: with VM i on board the PM is
	// never idle, so the floor of the partition is level 1. Inverting
	// the level partition of Eq. 4: w = floor((u/U_min)^(1/K)).
	level := 1
	if info.umin > 0 && u >= info.umin {
		ratio := u / info.umin
		var w float64
		if info.invK == 0.5 {
			w = math.Sqrt(ratio) // the Table II case, K = 2
		} else {
			w = math.Pow(ratio, info.invK)
		}
		level = int(w + vector.Epsilon)
		if level < 1 {
			level = 1
		}
		if level > info.wj {
			level = info.wj
		}
	} else if info.umin <= 0 && u > 0 {
		level = info.wj
	}
	return level
}
