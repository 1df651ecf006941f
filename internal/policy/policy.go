// Package policy defines the placement-scheme abstraction the simulator
// drives and implements the schemes the paper evaluates: the two static
// baselines (first-fit and best-fit, Section V), the proposed dynamic
// probability-matrix scheme, and two extra baselines (worst-fit, random)
// used for ablation studies.
package policy

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vector"
)

// Policy is a placement scheme: it decides where new VM requests go and
// whether/how to consolidate running VMs, ranks the alternatives decision
// tracing records, and sets the spare-pool target. Implementations must be
// deterministic given their construction parameters (Random takes a seed).
type Policy interface {
	// Name identifies the scheme in reports ("first-fit", "dynamic"...).
	Name() string

	// Place returns the PM to host a new VM request, or nil when no
	// active PM can take it (the simulator then boots a machine and
	// queues the request). The contract: Place returns nil only when no
	// PM CanHost the demand, a returned PM CanHost it, and a nil call
	// draws no randomness and changes no policy state. The simulator's
	// queue drain relies on it to skip a queued VM no changed PM can host
	// without asking (TestPlaceContract pins it for every scheme).
	Place(ctx *core.Context, vm *cluster.VM) *cluster.PM

	// Consolidate runs the scheme's migration pass (triggered by
	// arrivals, departures, and PM failures per Section III.C) and
	// returns the executed moves. Static schemes return nil.
	Consolidate(ctx *core.Context) ([]core.Move, error)

	// Alternatives ranks the scheme's top-k candidate PMs for placing
	// vm, best first, using the scheme's own preference metric as the
	// score (utilization for the fit family, normalized probability for
	// dynamic). The head is the PM Place would choose (when any
	// candidate exists). Must be read-only — in particular it must not
	// advance scheme-internal state such as Random's RNG stream, so
	// recording alternatives never perturbs the run. k <= 0 means
	// unbounded.
	Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement

	// SpareTarget is the spare-pool control point: given the baseline
	// controller's planned spare count, return the scheme's target.
	// Stock schemes return the baseline unchanged (so existing traces
	// are byte-identical); overbooking shrinks it by the booking ratio.
	SpareTarget(ctx *core.Context, baseline int) int
}

// Placer is the older name of Policy, kept for the benchmark harness,
// which spells both.
type Placer = Policy

// Unwrapper is implemented by policies that wrap another (Recorder,
// Replay, Adaptive). DynamicOf and RandomOf walk the chain so the
// simulator's concrete-type integrations (audit checks, RNG
// checkpointing) keep working through any wrapper.
type Unwrapper interface {
	// Unwrap returns the wrapped Policy.
	Unwrap() Policy
}

// DynamicOf returns the *Dynamic at the core of p, unwrapping any
// wrapper chain, and whether one was found.
func DynamicOf(p Policy) (*Dynamic, bool) {
	for p != nil {
		if d, ok := p.(*Dynamic); ok {
			return d, true
		}
		u, ok := p.(Unwrapper)
		if !ok {
			return nil, false
		}
		p = u.Unwrap()
	}
	return nil, false
}

// RandomOf returns the *Random at the core of p, unwrapping any wrapper
// chain, and whether one was found.
func RandomOf(p Policy) (*Random, bool) {
	for p != nil {
		if r, ok := p.(*Random); ok {
			return r, true
		}
		u, ok := p.(Unwrapper)
		if !ok {
			return nil, false
		}
		p = u.Unwrap()
	}
	return nil, false
}

// Compile-time checks: every scheme in this package is a Policy.
var (
	_ Policy = FirstFit{}
	_ Policy = BestFit{}
	_ Policy = WorstFit{}
	_ Policy = (*Random)(nil)
	_ Policy = (*Dynamic)(nil)
	_ Policy = (*Threshold)(nil)
	_ Policy = (*Overbook)(nil)
	_ Policy = (*Adaptive)(nil)
	_ Policy = (*Recorder)(nil)
	_ Policy = (*Replay)(nil)
)

// truncate caps a ranked placement list at k (k <= 0 means unbounded).
func truncate(out []core.Placement, k int) []core.Placement {
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// A fit is a fit-family scheme's preference: the score of a PM that can
// host demand, a utilization in [0, 1], or negative to leave the PM out.
// bestBy and rankBy are the one fleet walk these schemes share; a walk
// that remains says why it is not one of them.
type fit func(pm *cluster.PM, demand vector.V) float64

// Which end of a fit's score wins.
const (
	highest = 1.0
	lowest  = -1.0 // worst-fit
)

// bestBy returns the PM that can host demand with the winning score, ties
// to the lower ID, or nil. A group is consulted only when the groups
// before it have no candidate; a PM scores in at most one group.
func bestBy(ctx *core.Context, demand vector.V, sign float64, groups ...fit) *cluster.PM {
	for _, score := range groups {
		var best *cluster.PM
		bestS := math.Inf(-1)
		for _, pm := range ctx.DC.PMs() {
			if !pm.CanHost(demand) {
				continue
			}
			if s := score(pm, demand); s >= 0 && sign*s > bestS {
				best, bestS = pm, sign*s
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// rankBy lists bestBy's candidates as placements carrying their scores,
// each group's after those of the groups before it, by winning score and
// then ID, capped at k (k <= 0 means unbounded).
func rankBy(ctx *core.Context, demand vector.V, k int, sign float64, groups ...fit) []core.Placement {
	var out []core.Placement
	for _, score := range groups {
		start := len(out)
		for _, pm := range ctx.DC.PMs() {
			if !pm.CanHost(demand) {
				continue
			}
			if s := score(pm, demand); s >= 0 {
				out = append(out, core.Placement{PM: pm, Probability: s})
			}
		}
		slices.SortStableFunc(out[start:], func(a, b core.Placement) int {
			return cmp.Or(cmp.Compare(sign*b.Probability, sign*a.Probability), cmp.Compare(a.PM.ID, b.PM.ID))
		})
	}
	return truncate(out, k)
}

// utilAfter is best-fit's and worst-fit's score: Eq. 4's joint
// utilization with the demand on board.
var utilAfter fit = (*cluster.PM).UtilizationWith

// unit scores every PM alike, so rankBy keeps ID order (first-fit's
// preference, and random's candidate set).
func unit(*cluster.PM, vector.V) float64 { return 1 }

// FirstFit places each request on the lowest-ID active PM with room — the
// paper's first static baseline ("the new arrival VM request will be
// placed to the first PM with available computation resources").
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Place implements Policy: the lowest-ID PM that CanHosts the demand, as
// the datacenter's first-fit index finds it (cluster.Datacenter.FirstFit).
func (FirstFit) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	return ctx.DC.FirstFit(vm.Demand)
}

// Consolidate implements Policy (static schemes never migrate).
func (FirstFit) Consolidate(*core.Context) ([]core.Move, error) { return nil, nil }

// Alternatives implements Policy: feasible PMs in ID order (first-fit's
// own preference order), unit scores.
func (FirstFit) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return rankBy(ctx, vm.Demand, k, highest, unit)
}

// SpareTarget implements Policy (baseline passthrough).
func (FirstFit) SpareTarget(_ *core.Context, baseline int) int { return baseline }

// BestFit places each request on the feasible PM whose utilization after
// placement would be highest — the paper's second static baseline ("the PM
// that can achieve its maximum utilization"). Ties break to the lower PM
// ID.
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// Place implements Policy.
func (BestFit) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	return bestBy(ctx, vm.Demand, highest, utilAfter)
}

// Consolidate implements Policy.
func (BestFit) Consolidate(*core.Context) ([]core.Move, error) { return nil, nil }

// Alternatives implements Policy: feasible PMs by prospective
// utilization, highest first.
func (BestFit) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return rankBy(ctx, vm.Demand, k, highest, utilAfter)
}

// SpareTarget implements Policy (baseline passthrough).
func (BestFit) SpareTarget(_ *core.Context, baseline int) int { return baseline }

// WorstFit places each request on the feasible PM with the most headroom
// (lowest prospective utilization) — a load-spreading anti-consolidation
// baseline for ablations.
type WorstFit struct{}

// Name implements Policy.
func (WorstFit) Name() string { return "worst-fit" }

// Place implements Policy.
func (WorstFit) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	return bestBy(ctx, vm.Demand, lowest, utilAfter)
}

// Consolidate implements Policy.
func (WorstFit) Consolidate(*core.Context) ([]core.Move, error) { return nil, nil }

// Alternatives implements Policy: feasible PMs by prospective
// utilization, lowest first (most headroom wins).
func (WorstFit) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return rankBy(ctx, vm.Demand, k, lowest, utilAfter)
}

// SpareTarget implements Policy (baseline passthrough).
func (WorstFit) SpareTarget(_ *core.Context, baseline int) int { return baseline }

// Random places each request on a uniformly random feasible PM. Seeded, so
// runs remain reproducible.
type Random struct {
	rng *stats.Stream
}

// NewRandom returns a Random placer with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: stats.NewRand(seed)}
}

// RNGState captures the placer's stream state for a checkpoint.
func (r *Random) RNGState() stats.StreamState { return r.rng.State() }

// RestoreRNG reloads a checkpointed stream state so post-resume placements
// continue the original draw sequence exactly.
func (r *Random) RestoreRNG(st stats.StreamState) error {
	rng, err := stats.RestoreStream(st)
	if err != nil {
		return err
	}
	r.rng = rng
	return nil
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Place implements Policy. A uniform draw is no bestBy or rankBy, so it
// counts the candidates, draws once and walks to the drawn one.
func (r *Random) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	n := 0
	for _, pm := range ctx.DC.PMs() {
		if pm.CanHost(vm.Demand) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	i := r.rng.Intn(n)
	for _, pm := range ctx.DC.PMs() {
		if pm.CanHost(vm.Demand) {
			if i == 0 {
				return pm
			}
			i--
		}
	}
	panic("policy: random lost a candidate between two walks")
}

// Consolidate implements Policy.
func (*Random) Consolidate(*core.Context) ([]core.Move, error) { return nil, nil }

// Alternatives implements Policy: the feasible candidate set in ID
// order with unit scores. Deliberately does NOT draw from the RNG —
// Alternatives must be side-effect-free so that recording them leaves
// the placement draw sequence (and therefore the run trace) untouched.
func (r *Random) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return rankBy(ctx, vm.Demand, k, highest, unit)
}

// SpareTarget implements Policy (baseline passthrough).
func (*Random) SpareTarget(_ *core.Context, baseline int) int { return baseline }

// Dynamic is the paper's statistical dynamic placement scheme: arrivals go
// to the highest-joint-probability PM (the new-request column of the
// matrix), and every placement-changing event triggers Algorithm 1.
type Dynamic struct {
	// Factors are the probability factors composing p_ij; nil selects
	// core.DefaultFactors (res, vir, rel, eff). A run takes only a list
	// the candidate index evaluates (core.CheckFactors): sim.New refuses
	// any other by name.
	Factors []core.Factor

	// Params are the MIG_threshold / MIG_round knobs.
	Params core.Params

	// Opts tunes matrix evaluation (the CandidateK overflow ceiling). A
	// run's own settings — self-audit, decision recording — live on its
	// core.Context, so no run writes to a Dynamic and one Dynamic can
	// drive several runs at once.
	Opts core.MatrixOptions

	// label overrides Name for ablation variants.
	label string
}

// NewDynamic returns the scheme with the paper's default factors and
// parameters.
func NewDynamic() *Dynamic {
	return &Dynamic{Factors: core.DefaultFactors(), Params: core.DefaultParams()}
}

// NewDynamicVariant builds an ablation variant with a custom label,
// factor set, and parameters.
func NewDynamicVariant(label string, factors []core.Factor, params core.Params) *Dynamic {
	return &Dynamic{Factors: factors, Params: params, label: label}
}

// Name implements Policy.
func (d *Dynamic) Name() string {
	if d.label != "" {
		return d.label
	}
	return "dynamic"
}

func (d *Dynamic) factors() []core.Factor {
	if len(d.Factors) > 0 {
		return d.Factors
	}
	return core.DefaultFactors()
}

// FactorSet returns the factors the scheme evaluates (the defaults when
// none were set). The audit subsystem uses it to build reference matrices
// with exactly the scheme's factor composition.
func (d *Dynamic) FactorSet() []core.Factor { return d.factors() }

// Place implements Policy. When every joint probability is zero — which
// happens for ultra-short requests whose estimated runtime is below even
// the creation overhead, zeroing p_vir everywhere — the request still has
// to run somewhere, so Place falls back to best-fit among resource-feasible
// PMs. (The paper's arrival rule, "allocate it to the PM with the highest
// probability", leaves the all-zero column undefined.)
func (d *Dynamic) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	if pm := core.BestPlacementWith(ctx, d.factors(), vm, d.Opts); pm != nil {
		ctx.Obs.Add("policy.dynamic_place", 1)
		return pm
	}
	// The all-zero-column fallback is a scheme blind spot worth watching
	// in production traces, so it gets its own counter.
	if pm := (BestFit{}).Place(ctx, vm); pm != nil {
		ctx.Obs.Add("policy.dynamic_place_fallback", 1)
		return pm
	}
	return nil
}

// Consolidate implements Policy.
func (d *Dynamic) Consolidate(ctx *core.Context) ([]core.Move, error) {
	return core.ConsolidateWith(ctx, d.factors(), d.Params, d.Opts)
}

// Alternatives implements Policy: the arrival column's ranked joint
// probabilities, the candidate index's shortlist truncated to k.
func (d *Dynamic) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return core.ArrivalShortlist(ctx, d.factors(), vm, k)
}

// SpareTarget implements Policy (baseline passthrough).
func (*Dynamic) SpareTarget(_ *core.Context, baseline int) int { return baseline }

// ByName constructs a scheme from its report name; seed feeds the Random
// scheme. Unknown names return an error listing the options.
func ByName(name string, seed int64) (Policy, error) {
	switch name {
	case "first-fit":
		return FirstFit{}, nil
	case "best-fit":
		return BestFit{}, nil
	case "worst-fit":
		return WorstFit{}, nil
	case "random":
		return NewRandom(seed), nil
	case "dynamic":
		return NewDynamic(), nil
	case "threshold":
		return NewThreshold(), nil
	case "overbook":
		return NewOverbook(), nil
	case "dynamic-adaptive":
		return NewAdaptive(), nil
	default:
		return nil, fmt.Errorf("policy: unknown scheme %q (want first-fit, best-fit, worst-fit, random, threshold, dynamic, overbook, or dynamic-adaptive)", name)
	}
}
