package policy

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// DecisionKind discriminates parsed decision records.
type DecisionKind int

// The three decision points a Recorder logs.
const (
	KindPlace DecisionKind = iota
	KindMoves
	KindSpare
)

// DecisionAlt is one ranked rejected-or-chosen alternative.
type DecisionAlt struct {
	PM    cluster.PMID
	Score float64
}

// DecisionMove is one recorded consolidation move with its column
// alternatives (empty for schemes outside the dynamic family).
type DecisionMove struct {
	VM       cluster.VMID
	From, To cluster.PMID
	Round    int
	Gain     float64
	Alts     []DecisionAlt
}

// Decision is one parsed decision record.
type Decision struct {
	Kind DecisionKind
	Seq  uint64
	T    float64

	// KindPlace: the placed VM, chosen PM (-1 = queued), and ranked
	// alternatives.
	VM   cluster.VMID
	PM   cluster.PMID
	Alts []DecisionAlt

	// KindMoves: the Consolidate invocation index and its moves.
	Call  uint64
	Moves []DecisionMove

	// KindSpare: the SpareTarget invocation index, controller baseline,
	// and recorded target.
	Tick     uint64
	Baseline int
	Spares   int
}

// decLine is the JSON shape of one decision-stream line.
type decLine struct {
	Seq      uint64  `json:"seq"`
	T        float64 `json:"t"`
	Event    string  `json:"event"`
	VM       int64   `json:"vm"`
	PM       int64   `json:"pm"`
	Alts     string  `json:"alts"`
	Call     uint64  `json:"call"`
	Moves    string  `json:"moves"`
	Tick     uint64  `json:"tick"`
	Baseline int64   `json:"baseline"`
	Spares   int64   `json:"spares"`
}

// ParseDecisionLog reads a Recorder decision stream back into decisions,
// in order. It reads through obs.Reader, so the stream may be the binary
// records a recording run writes, a JSONL log an older build wrote, or
// both concatenated. Damaged records, unknown events and malformed
// payloads are positional errors, not skips — a damaged log must not
// replay as a shorter clean one.
func ParseDecisionLog(r io.Reader) ([]Decision, error) {
	var out []Decision
	rd := obs.NewReader(r)
	for n := 1; ; n++ {
		line, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("policy: decision log: %w", err)
		}
		var dl decLine
		if err := json.Unmarshal(line, &dl); err != nil {
			return nil, fmt.Errorf("policy: decision log record %d: %w", n, err)
		}
		d := Decision{Seq: dl.Seq, T: dl.T}
		switch dl.Event {
		case "decision_place":
			d.Kind = KindPlace
			d.VM = cluster.VMID(dl.VM)
			d.PM = cluster.PMID(dl.PM)
			alts, err := parseAlts(dl.Alts)
			if err != nil {
				return nil, fmt.Errorf("policy: decision log record %d: %w", n, err)
			}
			d.Alts = alts
		case "decision_moves":
			d.Kind = KindMoves
			d.Call = dl.Call
			moves, err := parseMoves(dl.Moves)
			if err != nil {
				return nil, fmt.Errorf("policy: decision log record %d: %w", n, err)
			}
			if len(moves) == 0 {
				return nil, fmt.Errorf("policy: decision log record %d: decision_moves with no moves", n)
			}
			d.Moves = moves
		case "decision_spare":
			d.Kind = KindSpare
			d.Tick = dl.Tick
			d.Baseline = int(dl.Baseline)
			d.Spares = int(dl.Spares)
		default:
			return nil, fmt.Errorf("policy: decision log record %d: unknown event %q", n, dl.Event)
		}
		out = append(out, d)
	}
}

// parseAlts decodes appendAlts' rendered "pm=score,pm=score" form.
func parseAlts(s string) ([]DecisionAlt, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]DecisionAlt, 0, len(parts))
	for _, p := range parts {
		id, score, ok := strings.Cut(p, "=")
		if !ok {
			return nil, fmt.Errorf("malformed alternative %q", p)
		}
		pm, err := strconv.ParseInt(id, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed alternative PM %q: %v", id, err)
		}
		v, err := strconv.ParseFloat(score, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed alternative score %q: %v", score, err)
		}
		out = append(out, DecisionAlt{PM: cluster.PMID(pm), Score: v})
	}
	return out, nil
}

// parseMoves decodes appendMoves' rendered
// "vm:from:to:round:gain[@alts]|..." form.
func parseMoves(s string) ([]DecisionMove, error) {
	if s == "" {
		return nil, nil
	}
	entries := strings.Split(s, "|")
	out := make([]DecisionMove, 0, len(entries))
	for _, e := range entries {
		body, altStr, hasAlts := strings.Cut(e, "@")
		fields := strings.Split(body, ":")
		if len(fields) != 5 {
			return nil, fmt.Errorf("malformed move %q", e)
		}
		var mv DecisionMove
		vm, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed move VM %q: %v", fields[0], err)
		}
		from, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed move source %q: %v", fields[1], err)
		}
		to, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed move target %q: %v", fields[2], err)
		}
		round, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("malformed move round %q: %v", fields[3], err)
		}
		gain, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed move gain %q: %v", fields[4], err)
		}
		mv.VM, mv.From, mv.To = cluster.VMID(vm), cluster.PMID(from), cluster.PMID(to)
		mv.Round, mv.Gain = round, gain
		if hasAlts {
			if mv.Alts, err = parseAlts(altStr); err != nil {
				return nil, fmt.Errorf("malformed move alternatives %q: %v", altStr, err)
			}
		}
		out = append(out, mv)
	}
	return out, nil
}

// ReplayOverride substitutes one recorded placement: at decision log
// index Index (a KindPlace record), pick ranked alternative Alt instead
// of the recorded choice. Everything after the substitution runs live
// on the Fallback policy — that is the counterfactual.
type ReplayOverride struct {
	// Index is the record's position in the parsed decision log.
	Index int

	// Alt indexes the record's alternative list.
	Alt int
}

// Replay is a Policy that re-executes a recorded decision log verbatim:
// placements return the recorded PM, consolidation passes re-apply the
// recorded moves, spare targets return the recorded count. With no
// Override, driving the same workload yields a byte-identical run trace
// (cmd/dvmpsim's TestFaithfulReplayReproducesTrace drives it as dvmpsim
// -replay). With an Override, the run follows the log up to the
// substitution and the Fallback policy afterward.
//
// Any mismatch between the log and the live run — wrong VM, wrong
// record kind, exhausted log — marks the replay diverged: subsequent
// decisions fall through to Fallback and Err reports the first reason.
type Replay struct {
	// Log is the parsed decision log.
	Log []Decision

	// Fallback decides everything after divergence (normally the same
	// scheme that recorded the log).
	Fallback Policy

	// Override, when set, substitutes one recorded placement.
	Override *ReplayOverride

	pos        int
	call, tick uint64
	diverged   bool
	err        error
}

// NewReplay returns a Replay over log with the given fallback.
func NewReplay(log []Decision, fallback Policy) *Replay {
	return &Replay{Log: log, Fallback: fallback}
}

// Name implements Policy: the replayed scheme's name, so run_start
// events (and scheme-fingerprinted checkpoints) match the original.
func (rp *Replay) Name() string { return rp.Fallback.Name() }

// Unwrap implements Unwrapper, exposing the fallback scheme to the
// simulator's kernel-worker and audit integrations.
func (rp *Replay) Unwrap() Policy { return rp.Fallback }

// Diverged reports whether the live run left the recorded log, and Err
// returns the first divergence reason (nil for a deliberate Override
// substitution).
func (rp *Replay) Diverged() bool { return rp.diverged }

// Err returns the first unexpected-divergence reason, if any.
func (rp *Replay) Err() error { return rp.err }

// divergef marks the replay diverged with a reason (keeping the first).
func (rp *Replay) divergef(format string, args ...any) {
	rp.diverged = true
	if rp.err == nil {
		rp.err = fmt.Errorf(format, args...)
	}
}

// Place implements Policy.
func (rp *Replay) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	if rp.diverged {
		return rp.Fallback.Place(ctx, vm)
	}
	if rp.pos >= len(rp.Log) {
		rp.divergef("policy: replay: log exhausted at placement of VM %d", vm.ID)
		return rp.Fallback.Place(ctx, vm)
	}
	d := rp.Log[rp.pos]
	if d.Kind != KindPlace || d.VM != vm.ID {
		rp.divergef("policy: replay: record %d is not the placement of VM %d", rp.pos, vm.ID)
		return rp.Fallback.Place(ctx, vm)
	}
	idx := rp.pos
	rp.pos++
	if ov := rp.Override; ov != nil && ov.Index == idx {
		if ov.Alt < 0 || ov.Alt >= len(d.Alts) {
			rp.divergef("policy: replay: record %d has no alternative %d (have %d)", idx, ov.Alt, len(d.Alts))
			return rp.Fallback.Place(ctx, vm)
		}
		rp.diverged = true // deliberate: the counterfactual begins here
		alt := ctx.DC.PM(d.Alts[ov.Alt].PM)
		if alt == nil || !alt.CanHost(vm.Demand) {
			// The alternative was feasible when recorded but the
			// substitution context is identical up to here, so this only
			// fires on a stale override index; surface it.
			rp.divergef("policy: replay: alternative PM %d cannot host VM %d", d.Alts[ov.Alt].PM, vm.ID)
			return rp.Fallback.Place(ctx, vm)
		}
		return alt
	}
	if d.PM < 0 {
		return nil
	}
	pm := ctx.DC.PM(d.PM)
	if pm == nil || !pm.CanHost(vm.Demand) {
		rp.divergef("policy: replay: recorded PM %d cannot host VM %d", d.PM, vm.ID)
		return rp.Fallback.Place(ctx, vm)
	}
	return pm
}

// Consolidate implements Policy: re-apply the recorded pass keyed by
// the invocation counter. A pass with no matching record is a recorded
// empty pass (zero-move passes are not logged), not divergence.
func (rp *Replay) Consolidate(ctx *core.Context) ([]core.Move, error) {
	if rp.diverged {
		return rp.Fallback.Consolidate(ctx)
	}
	call := rp.call
	rp.call++
	if rp.pos >= len(rp.Log) || rp.Log[rp.pos].Kind != KindMoves || rp.Log[rp.pos].Call != call {
		return nil, nil
	}
	d := rp.Log[rp.pos]
	rp.pos++
	moves := make([]core.Move, 0, len(d.Moves))
	for _, mv := range d.Moves {
		src, dst := ctx.DC.PM(mv.From), ctx.DC.PM(mv.To)
		if src == nil || dst == nil {
			return moves, fmt.Errorf("policy: replay: move of VM %d references unknown PM %d->%d", mv.VM, mv.From, mv.To)
		}
		vm := src.VM(mv.VM)
		if vm == nil {
			return moves, fmt.Errorf("policy: replay: VM %d not on recorded source PM %d", mv.VM, mv.From)
		}
		if err := core.Migrate(vm, src, dst); err != nil {
			return moves, fmt.Errorf("policy: replay: move of VM %d to PM %d: %w", mv.VM, mv.To, err)
		}
		moves = append(moves, core.Move{
			VM: mv.VM, From: mv.From, To: mv.To, Gain: mv.Gain, Round: mv.Round,
		})
	}
	return moves, nil
}

// Alternatives implements Policy (the log has no live column to rank;
// delegate to the fallback).
func (rp *Replay) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return rp.Fallback.Alternatives(ctx, vm, k)
}

// SpareTarget implements Policy: spare records exist for every call, so
// a missing or mismatched one is divergence.
func (rp *Replay) SpareTarget(ctx *core.Context, baseline int) int {
	if rp.diverged {
		return rp.Fallback.SpareTarget(ctx, baseline)
	}
	tick := rp.tick
	rp.tick++
	if rp.pos >= len(rp.Log) || rp.Log[rp.pos].Kind != KindSpare || rp.Log[rp.pos].Tick != tick {
		rp.divergef("policy: replay: no spare record for tick %d", tick)
		return rp.Fallback.SpareTarget(ctx, baseline)
	}
	d := rp.Log[rp.pos]
	rp.pos++
	if d.Baseline != baseline {
		rp.divergef("policy: replay: spare tick %d baseline %d, recorded %d", tick, baseline, d.Baseline)
	}
	return d.Spares
}
