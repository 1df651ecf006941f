package core

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
)

// Move is one migration decision produced by Algorithm 1.
type Move struct {
	VM   cluster.VMID
	From cluster.PMID
	To   cluster.PMID

	// Gain is the normalized probability ratio d_ij that justified the
	// move (> MIG_threshold).
	Gain float64

	// Round is the 1-based migration round within the consolidation
	// pass.
	Round int
}

// MatrixOptions tunes a Dynamic scheme's evaluation. The run's own settings
// (self-audit, decision recording) live on its Context.
type MatrixOptions struct {
	// CandidateK selects nothing: every run evaluates on the candidate
	// index. It is only the declared ceiling on non-empty score
	// groups per demand shape behind the "core.sparse_shape_overflow"
	// diagnostic — a shape that needs more groups is still scanned
	// exactly, and each column or arrival that meets one is counted on
	// ctx.Obs so a mis-sized fleet model is visible. Zero or less declares
	// no ceiling and counts nothing.
	CandidateK int
}

// Params are the two knobs the paper uses to restrain dynamic migration
// (Section III.C).
type Params struct {
	// MIGThreshold is the minimum normalized gain a migration must
	// achieve; the paper's example uses 1.05. Values <= 1 allow
	// zero-improvement churn and are rejected.
	MIGThreshold float64

	// MIGRound caps migration rounds per consolidation pass.
	MIGRound int
}

// DefaultParams returns the paper's example settings.
func DefaultParams() Params {
	return Params{MIGThreshold: 1.05, MIGRound: 10}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if !(p.MIGThreshold > 1) {
		return fmt.Errorf("core: MIG_threshold must exceed 1, got %g", p.MIGThreshold)
	}
	if p.MIGRound <= 0 {
		return fmt.Errorf("core: MIG_round must be positive, got %d", p.MIGRound)
	}
	return nil
}

// Consolidate runs Algorithm 1 (dynamic VM migration) over the data
// center's currently running VMs: normalize each column of the probability
// matrix by its current placement, and while the largest normalized value
// exceeds MIG_threshold (and fewer than MIG_round rounds have run), migrate
// that VM and re-derive the two PMs it touched. The datacenter state is
// mutated; the executed moves are returned in order.
//
// Only VMs in the Running state participate: creating and migrating VMs
// are in transition and queued VMs hold no resources.
func Consolidate(ctx *Context, factors []Factor, params Params) ([]Move, error) {
	return ConsolidateWith(ctx, factors, params, MatrixOptions{})
}

// ConsolidateWith is Consolidate with explicit matrix options, over the
// Context's roster (roster.go): Algorithm 1 as a lazy greedy over gain
// bounds swept from the roster's buckets and score groups scanned on the
// candidate index, with no engine built (bound.go). A factor list outside
// the covered family fails by name (CheckFactors).
func ConsolidateWith(ctx *Context, factors []Factor, params Params, opts MatrixOptions) ([]Move, error) {
	ctx.alts = ctx.alts[:0]
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.use(factors); err != nil {
		return nil, err
	}
	phase := ctx.metrics().collect.Span()
	start := phase.Begin()
	ro := ctx.syncRoster()
	phase.End(start)
	if ctx.SelfAudit {
		if err := ctx.diffRoster(); err != nil {
			return nil, err
		}
	}
	if running, err := ro.running(); !running {
		return nil, err
	}
	moves, err := ctx.consolidateLazy(factors, params, opts)
	if err != nil {
		return moves, err
	}
	ctx.metrics().passes.Add(1)
	if len(moves) > 0 {
		ctx.metrics().moves.Add(int64(len(moves)))
	}
	return moves, nil
}

// Migrate moves vm from src to dst — evict, host, count the migration — or,
// when dst cannot actually host it (for Algorithm 1 that would indicate a
// factor bug, since p_res must have been positive), errors with the VM back
// on src. It is the one migration primitive: Algorithm 1's passes, the
// policy package's Threshold and Replay, and the tests' cold reference all
// move VMs through it.
func Migrate(vm *cluster.VM, src, dst *cluster.PM) error {
	if err := src.Evict(vm); err != nil {
		return fmt.Errorf("core: apply move of VM %d: %w", vm.ID, err)
	}
	if err := dst.Host(vm); err != nil {
		// Roll back so the model stays consistent.
		if rbErr := src.Host(vm); rbErr != nil {
			panic(fmt.Sprintf("core: rollback failed after host error (%v): %v", err, rbErr))
		}
		return fmt.Errorf("core: apply move of VM %d: %w", vm.ID, err)
	}
	vm.Migrations++
	return nil
}

// MigratableVMs returns the VMs eligible for Algorithm 1 — state Running;
// creating and migrating VMs are in transition and queued VMs hold no
// resources — sorted by ID. The sort holds by construction
// (AppendVMsInState sorts the appended span): Algorithm 1's tie-breaks
// are ID-ordered, so the column order must not depend on an upstream
// implementation accident (the determinism tests assert it). This is the
// column axis of the cold reference (reference.go) that SelfAudit and the
// audit checks hold the lazy rounds to.
func MigratableVMs(dc *cluster.Datacenter) []*cluster.VM {
	return dc.AppendVMsInState(nil, cluster.VMRunning)
}

// Placement scores one candidate PM for a new VM request.
type Placement struct {
	PM          *cluster.PM
	Probability float64
}

// RankPlacements evaluates the new-arrival column of the probability
// matrix: the joint probability of hosting vm on every active PM, sorted
// by decreasing probability (ties toward lower PM ID). Infeasible PMs
// (probability 0) are omitted.
//
// This is the paper's arrival path: "if a new VM request arrives, we only
// calculate the probability in the new VM column and allocate it to the PM
// with the highest probability". It evaluates the column through Joint, PM
// by PM, for any factor list, which makes it the reference the candidate
// index's arrival argmax and shortlist are compared against. Callers that only
// need the argmax should use BestPlacement, which is sort- and
// allocation-free.
func RankPlacements(ctx *Context, factors []Factor, vm *cluster.VM) []Placement {
	var out []Placement
	for _, pm := range ctx.DC.PMs() {
		if !pm.Active() {
			continue
		}
		if p := Joint(ctx, factors, vm, pm, false); p > 0 {
			out = append(out, Placement{PM: pm, Probability: p})
		}
	}
	slices.SortFunc(out, comparePlacements)
	return out
}

// BestPlacement returns the highest-probability PM for vm, or nil when no
// active PM can host it (the caller then boots a machine or queues the
// request), with ties broken toward the lower PM ID — RankPlacements'
// first entry, without the candidate slice or the sort.
func BestPlacement(ctx *Context, factors []Factor, vm *cluster.VM) *cluster.PM {
	return BestPlacementWith(ctx, factors, vm, MatrixOptions{})
}

// BestPlacementWith is BestPlacement with explicit matrix options: the
// candidate index's argmax over score groups, bit-identical to the column
// scan by construction. It panics on a factor list outside the covered
// family (Context.index).
func BestPlacementWith(ctx *Context, factors []Factor, vm *cluster.VM, opts MatrixOptions) *cluster.PM {
	phase := ctx.metrics().arrival.Span()
	defer phase.End(phase.Begin())
	return ctx.index(factors).bestArrival(vm, opts.CandidateK)
}
