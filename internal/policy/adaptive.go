package policy

import (
	"fmt"

	"repro/internal/core"
)

// Adaptive wraps the dynamic scheme with a self-tuning MIG_threshold:
// when a consolidation pass exhausts its full MIG_round budget the
// threshold is raised (migration is too eager — demand more gain per
// move), and after IdleWindow consecutive empty passes it is lowered
// back toward Lo (opportunities are being left on the table). The
// threshold walks in Step increments clamped to [Lo, Hi].
//
// Everything else — arrival placement, the Algorithm 1 loop, alternative
// ranking — is the embedded *Dynamic's; Unwrap exposes it so the
// simulator's audit integrations keep working.
type Adaptive struct {
	*Dynamic

	// Lo and Hi clamp the threshold walk; both must exceed 1 (the
	// Params validity floor) with Lo <= Hi.
	Lo, Hi float64

	// Step is the per-adjustment increment.
	Step float64

	// IdleWindow is how many consecutive zero-move passes trigger a
	// downward step.
	IdleWindow int

	// cur is the live threshold; idle counts consecutive empty passes.
	// Both are checkpointed via AdaptiveState so a resumed run continues
	// the walk exactly.
	cur  float64
	idle int
}

// NewAdaptive returns the variant with the paper's default dynamic
// scheme inside, walking the threshold in 0.01 steps between 1.02 and
// 1.25 (around the paper's 1.05 default, which is the starting point),
// relaxing after 8 idle passes.
func NewAdaptive() *Adaptive {
	d := NewDynamic()
	return &Adaptive{
		Dynamic:    d,
		Lo:         1.02,
		Hi:         1.25,
		Step:       0.01,
		IdleWindow: 8,
		cur:        d.Params.MIGThreshold,
	}
}

// Name implements Policy.
func (*Adaptive) Name() string { return "dynamic-adaptive" }

// Unwrap implements Unwrapper.
func (a *Adaptive) Unwrap() Policy { return a.Dynamic }

// Consolidate implements Policy: run the dynamic pass at the live
// threshold, then adjust it from the outcome.
func (a *Adaptive) Consolidate(ctx *core.Context) ([]core.Move, error) {
	a.Params.MIGThreshold = a.cur
	moves, err := a.Dynamic.Consolidate(ctx)
	if err != nil {
		return moves, err
	}
	switch {
	case len(moves) >= a.Params.MIGRound:
		// Budget exhausted: the threshold admits too many moves.
		if a.cur = a.cur + a.Step; a.cur > a.Hi {
			a.cur = a.Hi
		}
		a.idle = 0
		ctx.Obs.Add("policy.adaptive_raise", 1)
	case len(moves) == 0:
		if a.idle++; a.idle >= a.IdleWindow {
			if a.cur = a.cur - a.Step; a.cur < a.Lo {
				a.cur = a.Lo
			}
			a.idle = 0
			ctx.Obs.Add("policy.adaptive_lower", 1)
		}
	default:
		a.idle = 0
	}
	return moves, nil
}

// AdaptiveState is the checkpointed threshold walk.
type AdaptiveState struct {
	// Threshold is the live MIG_threshold at capture time.
	Threshold float64 `json:"threshold"`

	// Idle is the consecutive-empty-pass count at capture time.
	Idle int `json:"idle"`
}

// State captures the walk for a checkpoint.
func (a *Adaptive) State() AdaptiveState {
	return AdaptiveState{Threshold: a.cur, Idle: a.idle}
}

// RestoreState reloads a checkpointed walk so a resumed run continues
// the threshold trajectory exactly.
func (a *Adaptive) RestoreState(st AdaptiveState) error {
	if !(st.Threshold >= a.Lo && st.Threshold <= a.Hi) {
		return fmt.Errorf("policy: adaptive threshold %g outside [%g, %g]", st.Threshold, a.Lo, a.Hi)
	}
	if st.Idle < 0 {
		return fmt.Errorf("policy: adaptive idle count %d negative", st.Idle)
	}
	a.cur, a.idle = st.Threshold, st.Idle
	return nil
}
