package policy

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// recordedLog is the head of a recorded decision log (the golden-trace
// scenario of cmd/dvmpsim: 8 PMs, seed 3, -spare), canonical form, plus a
// rescue pass — a +Inf gain whose lone alternative is the rescuing PM —
// which the recorder writes but that run never needed.
var recordedLog = []string{
	`{"v":1,"seq":0,"t":0,"event":"decision_spare","tick":0,"baseline":0,"spares":0}`,
	`{"v":1,"seq":1,"t":198.0473546520738,"event":"decision_place","vm":1,"pm":-1,"alts":""}`,
	`{"v":1,"seq":2,"t":248.0473546520738,"event":"decision_place","vm":1,"pm":0,"alts":"0=0.12164604287136355"}`,
	`{"v":1,"seq":22,"t":3955.99151053026,"event":"decision_place","vm":19,"pm":0,"alts":"0=0.9789468673936146,1=0.9789468673936146,2=0.16254604644937246"}`,
	`{"v":1,"seq":49,"t":13919.403940686914,"event":"decision_moves","call":62,"moves":"32:2:0:1:1.485680441298326@0=1.485680441298326,4=0.24710348326636092,5=0.24710348326636092|40:2:0:2:1.2367628834689801@0=1.2367628834689801,4=0.1972761196451631,5=0.1972761196451631|39:2:0:3:1.0503808604397866@0=1.0503808604397866,4=0.16073798531655525,5=0.16073798531655525"}`,
	`{"v":1,"seq":86,"t":19278.78623607069,"event":"decision_moves","call":103,"moves":"57:2:0:1:1.494598135660651@0=1.494598135660651,7=0.4978139536837225|68:2:6:2:1.275118761613289@6=1.275118761613289,7=0.31877969040332227"}`,
	`{"v":1,"seq":87,"t":19300,"event":"decision_moves","call":104,"moves":"70:3:1:1:+Inf@1=+Inf|71:4:1:2:1.0625"}`,
}

// FuzzParseDecisionLog feeds the decision-log reader arbitrary input,
// JSONL text and binary records alike. It must never panic, and whatever
// it accepts must survive the recorder's encoders: every decision's
// alternatives and moves, written back through appendAlts and appendMoves
// and rendered, parse to the same values bit for bit.
func FuzzParseDecisionLog(f *testing.F) {
	f.Add(strings.Join(recordedLog, "\n") + "\n")
	for _, line := range recordedLog {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, log string) {
		decs, err := ParseDecisionLog(strings.NewReader(log))
		if err != nil {
			return
		}
		for i, d := range decs {
			alts, err := parseAlts(renderCompound(t, appendAlts(nil, placementsOf(d.Alts))))
			if err != nil || !sameAlts(alts, d.Alts) {
				t.Fatalf("decision %d: alternatives %v re-encode to %v (%v)", i, d.Alts, alts, err)
			}
			if d.Kind != KindMoves {
				continue
			}
			moves := make([]core.Move, len(d.Moves))
			lists := make([][]core.Placement, len(d.Moves))
			for j, mv := range d.Moves {
				moves[j] = core.Move{VM: mv.VM, From: mv.From, To: mv.To, Round: mv.Round, Gain: mv.Gain}
				lists[j] = placementsOf(mv.Alts)
			}
			back, err := parseMoves(renderCompound(t, appendMoves(nil, moves, lists)))
			if err != nil || len(back) != len(d.Moves) {
				t.Fatalf("decision %d: moves %v re-encode to %v (%v)", i, d.Moves, back, err)
			}
			for j, mv := range back {
				want := d.Moves[j]
				if mv.VM != want.VM || mv.From != want.From || mv.To != want.To || mv.Round != want.Round ||
					math.Float64bits(mv.Gain) != math.Float64bits(want.Gain) || !sameAlts(mv.Alts, want.Alts) {
					t.Fatalf("decision %d: move %d %+v re-encodes to %+v", i, j, want, mv)
				}
			}
		}
	})
}

// placementsOf turns parsed alternatives back into the recorder's input.
func placementsOf(alts []DecisionAlt) []core.Placement {
	out := make([]core.Placement, len(alts))
	for i, a := range alts {
		out[i] = core.Placement{PM: &cluster.PM{ID: a.PM}, Probability: a.Score}
	}
	return out
}

func sameAlts(a, b []DecisionAlt) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PM != b[i].PM || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
