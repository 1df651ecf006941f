package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
)

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
// center's currently running VMs: build the probability matrix, normalize
// each column by its current placement, and while the largest normalized
// value exceeds MIG_threshold (and fewer than MIG_round rounds have run),
// migrate that VM and refresh the affected rows. The datacenter state is
// mutated; the executed moves are returned in order.
//
// Only VMs in the Running state participate: creating and migrating VMs
// are in transition and queued VMs hold no resources.
func Consolidate(ctx *Context, factors []Factor, params Params) ([]Move, error) {
	return ConsolidateWith(ctx, factors, params, MatrixOptions{})
}

// ConsolidateWith is Consolidate with explicit matrix options: with
// CandidateK > 0 and the canonical factor program the pass runs on the
// sparse candidate-set engine, otherwise on the dense matrix — the same
// Algorithm 1 loop either way, with bit-identical moves.
func ConsolidateWith(ctx *Context, factors []Factor, params Params, opts MatrixOptions) ([]Move, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ctx.vmBuf = ctx.DC.AppendVMsInState(ctx.vmBuf[:0], cluster.VMRunning)
	vms := ctx.vmBuf
	if len(vms) == 0 {
		return nil, nil
	}
	var (
		e    engine
		rows []*cluster.PM
		cols []*cluster.VM
		err  error
	)
	stop := ctx.Obs.Phase("kernel_build").Time()
	if opts.CandidateK > 0 && canonicalDefault(factors) {
		var sm *SparseMatrix
		if sm, err = NewSparseMatrix(ctx, factors, vms, opts); err == nil {
			e, rows, cols = sm, sm.pms, sm.vms
		}
	} else {
		var m *Matrix
		if m, err = NewMatrixWith(ctx, factors, vms, opts); err == nil {
			defer m.Release()
			e, rows, cols = m, m.pms, m.vms
		}
	}
	stop()
	if err != nil {
		return nil, err
	}
	moves, err := runRounds(ctx, e, rows, cols, params, opts.DecisionHook)
	if err != nil {
		return moves, err
	}
	ctx.Obs.Add("core.consolidate_passes", 1)
	if len(moves) > 0 {
		ctx.Obs.Add("core.consolidate_moves", int64(len(moves)))
	}
	return moves, nil
}

// engine is what Algorithm 1 needs from a probability matrix; Matrix and
// SparseMatrix implement it.
type engine interface {
	// Best returns the globally best move under the (gain desc, column
	// asc, row asc) order.
	Best() (r, c int, gain float64, ok bool)
	// Apply migrates column c's VM to row r and repairs the trackers.
	Apply(r, c int) error
	// alternatives ranks column c's top-k non-host rows by gain.
	alternatives(c, k int) []Placement
}

// runRounds is Algorithm 1's migration loop over an engine whose rows and
// columns are pms and vms: while the best normalized gain exceeds
// MIG_threshold and fewer than MIG_round rounds have run, report the move
// to the hook (if any) and apply it. On an Apply error the moves executed
// so far are returned with it.
func runRounds(ctx *Context, e engine, pms []*cluster.PM, vms []*cluster.VM, params Params,
	hook func(round int, mv Move, alts []Placement)) ([]Move, error) {
	defer ctx.Obs.Phase("algo1_rounds").Time()()
	var moves []Move
	for round := 1; round <= params.MIGRound; round++ {
		r, c, gain, ok := e.Best()
		if !ok || gain <= params.MIGThreshold || math.IsNaN(gain) {
			break
		}
		vm := vms[c]
		mv := Move{VM: vm.ID, From: vm.Host, To: pms[r].ID, Gain: gain, Round: round}
		if hook != nil {
			hook(round, mv, e.alternatives(c, altDepth))
		}
		if err := e.Apply(r, c); err != nil {
			return moves, err
		}
		moves = append(moves, mv)
	}
	return moves, nil
}

// MigratableVMs returns the VMs eligible for Algorithm 1 — state Running;
// creating and migrating VMs are in transition and queued VMs hold no
// resources — sorted by ID. The sort holds by construction
// (AppendVMsInState sorts the appended span): Algorithm 1's tie-breaks
// are ID-ordered, so the column order must not depend on an upstream
// implementation accident (the determinism tests assert it).
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
// with the highest probability". Callers that only need the argmax should
// use BestPlacement, which is sort- and allocation-free.
func RankPlacements(ctx *Context, factors []Factor, vm *cluster.VM) []Placement {
	pms, k, useKernel := ctx.arrivalKernel(factors, vm)
	var out []Placement
	for r, pm := range pms {
		var p float64
		if useKernel {
			p = k.cell(r, 0, pm, vm, false)
		} else {
			p = Joint(ctx, factors, vm, pm, false)
		}
		if p > 0 {
			out = append(out, Placement{PM: pm, Probability: p})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].PM.ID < out[j].PM.ID
	})
	return out
}

// BestPlacement returns the highest-probability PM for vm, or nil when no
// active PM can host it (the caller then boots a machine or queues the
// request). It is a single argmax pass over the arrival column — no
// candidate slice, no sort — with ties broken toward the lower PM ID
// (ActivePMs iterates in ID order), matching RankPlacements' first entry.
func BestPlacement(ctx *Context, factors []Factor, vm *cluster.VM) *cluster.PM {
	defer ctx.Obs.Phase("arrival_place").Time()()
	pms, k, useKernel := ctx.arrivalKernel(factors, vm)
	var best *cluster.PM
	bestP := 0.0
	for r, pm := range pms {
		var p float64
		if useKernel {
			p = k.cell(r, 0, pm, vm, false)
		} else {
			p = Joint(ctx, factors, vm, pm, false)
		}
		if p > bestP {
			bestP, best = p, pm
		}
	}
	return best
}

// arrivalKernel assembles the active-PM row set and single-column kernel
// for one arrival evaluation out of the Context's arrival scratch, so the
// per-event cost is the argmax pass itself rather than slice and map
// construction.
func (ctx *Context) arrivalKernel(factors []Factor, vm *cluster.VM) ([]*cluster.PM, *kernel, bool) {
	ctx.arr.pms = ctx.DC.AppendActivePMs(ctx.arr.pms[:0])
	ctx.arr.vmBuf[0] = vm
	k, useKernel := newKernelInto(&ctx.arr.ks, ctx, factors, ctx.arr.pms, ctx.arr.vmBuf[:])
	return ctx.arr.pms, k, useKernel
}
