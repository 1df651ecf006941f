package policy

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// Recorder wraps a Policy and writes every decision it makes — arrival
// placements, consolidation moves, spare-pool targets — to the
// observer's decision stream, each with the top-K rejected alternatives
// the scheme considered. The wrapped policy's behavior is unchanged:
// alternatives are enumerated through the side-effect-free Alternatives
// surface (and, for the dynamic family, read from the Context, which
// collects each move's alternatives while the run records decisions —
// core.Context.MoveAlternatives), so a recorded run's trace is
// byte-identical to an unrecorded one (cmd/dvmpsim's TestTraceEquivalence
// pins this).
//
// Decision records are the input to Replay and dvmpsim -replay; their
// schema is documented in DESIGN.md §16.
type Recorder struct {
	// P is the wrapped policy.
	P Policy

	// K is the alternative-list depth per decision.
	K int

	// call counts Consolidate invocations and tick counts SpareTarget
	// invocations; both key their records so Replay can line resumed
	// logs up exactly. Checkpointed via RecorderState.
	call, tick uint64

	// buf is the compound payload of the record being written
	// (appendAlts, appendMoves), which Emit copies into its record.
	buf []byte
}

// NewRecorder wraps p with decision recording at alternative depth k
// (<= 0 selects the default depth 3).
func NewRecorder(p Policy, k int) *Recorder {
	if k <= 0 {
		k = 3
	}
	return &Recorder{P: p, K: k}
}

// Name implements Policy: a recorded run reports the wrapped scheme's
// name (recording is instrumentation, not a scheme).
func (rec *Recorder) Name() string { return rec.P.Name() }

// Unwrap implements Unwrapper.
func (rec *Recorder) Unwrap() Policy { return rec.P }

// Place implements Policy: enumerate alternatives first (read-only),
// then delegate, then record both.
func (rec *Recorder) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	if !ctx.Obs.DecisionTracing() {
		return rec.P.Place(ctx, vm)
	}
	alts := rec.P.Alternatives(ctx, vm, rec.K)
	pm := rec.P.Place(ctx, vm)
	pmID := int64(-1)
	if pm != nil {
		pmID = int64(pm.ID)
	}
	rec.buf = appendAlts(rec.buf[:0], alts)
	ctx.Obs.EmitDecision(ctx.Now, "decision_place",
		obs.I("vm", int64(vm.ID)),
		obs.I("pm", pmID),
		obs.C("alts", rec.buf),
	)
	return pm
}

// Consolidate implements Policy: for the dynamic family each move's column
// alternatives are the ones the Algorithm 1 pass collected on the Context
// (core.Context.MoveAlternatives); other schemes run no such pass, and
// their moves are recorded without alternatives. Passes with zero moves
// are not recorded — Replay keys records by the invocation counter, so a
// missing record is a legitimate empty pass, not divergence.
func (rec *Recorder) Consolidate(ctx *core.Context) ([]core.Move, error) {
	call := rec.call
	rec.call++
	if !ctx.Obs.DecisionTracing() {
		return rec.P.Consolidate(ctx)
	}
	moves, err := rec.P.Consolidate(ctx)
	if len(moves) > 0 {
		rec.buf = appendMoves(rec.buf[:0], moves, ctx.MoveAlternatives())
		ctx.Obs.EmitDecision(ctx.Now, "decision_moves",
			obs.I("call", int64(call)),
			obs.C("moves", rec.buf),
		)
	}
	return moves, err
}

// Alternatives implements Policy (delegation; recording its own output
// would be circular).
func (rec *Recorder) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return rec.P.Alternatives(ctx, vm, k)
}

// SpareTarget implements Policy: every call is recorded (unlike moves,
// the baseline passthrough result is still a decision Replay must
// reproduce without consulting the wrapped scheme).
func (rec *Recorder) SpareTarget(ctx *core.Context, baseline int) int {
	tick := rec.tick
	rec.tick++
	n := rec.P.SpareTarget(ctx, baseline)
	ctx.Obs.EmitDecision(ctx.Now, "decision_spare",
		obs.I("tick", int64(tick)),
		obs.I("baseline", int64(baseline)),
		obs.I("spares", int64(n)),
	)
	return n
}

// RecorderState is the checkpointed record-keying state.
type RecorderState struct {
	// Calls is the Consolidate invocation count at capture time.
	Calls uint64 `json:"calls"`

	// Ticks is the SpareTarget invocation count at capture time.
	Ticks uint64 `json:"ticks"`
}

// State captures the counters for a checkpoint.
func (rec *Recorder) State() RecorderState {
	return RecorderState{Calls: rec.call, Ticks: rec.tick}
}

// RestoreState reloads checkpointed counters so records emitted after a
// resume continue the original keying (a concatenated decision log
// replays seamlessly).
func (rec *Recorder) RestoreState(st RecorderState) {
	rec.call, rec.tick = st.Calls, st.Ticks
}

// PlacerState is the checkpoint payload for policy-internal state that
// the simulator snapshot carries opaquely: the Recorder's record keying
// and the Adaptive threshold walk. Nil (and omitted from the snapshot
// JSON) when the configured placer has neither, which keeps existing
// checkpoint files byte-stable.
type PlacerState struct {
	Recorder *RecorderState `json:"recorder,omitempty"`
	Adaptive *AdaptiveState `json:"adaptive,omitempty"`
}

// CaptureState walks p's wrapper chain and captures any policy-internal
// state; returns nil when there is none.
func CaptureState(p Policy) *PlacerState {
	var st PlacerState
	for p != nil {
		switch v := p.(type) {
		case *Recorder:
			s := v.State()
			st.Recorder = &s
		case *Adaptive:
			s := v.State()
			st.Adaptive = &s
		}
		u, ok := p.(Unwrapper)
		if !ok {
			break
		}
		p = u.Unwrap()
	}
	if st.Recorder == nil && st.Adaptive == nil {
		return nil
	}
	return &st
}

// RestoreState walks p's wrapper chain and reloads captured state.
// Lenient by design: state with no matching policy in the chain is
// ignored (the resume CLI may legitimately resume an instrumented run
// without instrumentation).
func RestoreState(p Policy, st *PlacerState) error {
	if st == nil {
		return nil
	}
	for p != nil {
		switch v := p.(type) {
		case *Recorder:
			if st.Recorder != nil {
				v.RestoreState(*st.Recorder)
			}
		case *Adaptive:
			if st.Adaptive != nil {
				if err := v.RestoreState(*st.Adaptive); err != nil {
					return err
				}
			}
		}
		u, ok := p.(Unwrapper)
		if !ok {
			return nil
		}
		p = u.Unwrap()
	}
	return nil
}

// appendAlts appends an alternative list to a compound payload b as
// "pm=score" pairs joined by commas; rendered, each score is in strconv
// 'g'/-1 form (round-trippable, including "+Inf" for rescue moves).
func appendAlts(b []byte, alts []core.Placement) []byte {
	for i, a := range alts {
		if i > 0 {
			b = append(b, ',')
		}
		b = obs.CInt(b, int64(a.PM.ID))
		b = append(b, '=')
		b = obs.CFloat(b, a.Probability)
	}
	return b
}

// appendMoves appends a consolidation pass to a compound payload b as
// "vm:from:to:round:gain" entries joined by "|", each optionally followed
// by "@" and its alternative list (present for the dynamic family, absent
// for threshold-style movers).
func appendMoves(b []byte, moves []core.Move, alts [][]core.Placement) []byte {
	for i, mv := range moves {
		if i > 0 {
			b = append(b, '|')
		}
		b = obs.CInt(b, int64(mv.VM))
		b = append(b, ':')
		b = obs.CInt(b, int64(mv.From))
		b = append(b, ':')
		b = obs.CInt(b, int64(mv.To))
		b = append(b, ':')
		b = obs.CInt(b, int64(mv.Round))
		b = append(b, ':')
		b = obs.CFloat(b, mv.Gain)
		if i < len(alts) && len(alts[i]) > 0 {
			b = append(b, '@')
			b = appendAlts(b, alts[i])
		}
	}
	return b
}
