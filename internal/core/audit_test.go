package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestDiffDetectsPerturbation: checkRound holds a round to the cold
// reference bit for bit — a one-ulp change to the chosen column's
// normalizer, best probability or gain, or another best PM, fails it, naming
// the VM.
func TestDiffDetectsPerturbation(t *testing.T) {
	ctx, _ := spreadState(t, 16, 30, 3)
	if err := ctx.CheckProof(DefaultFactors(), 1.05); err != nil {
		t.Fatal(err)
	}
	ch, _ := ctx.choose(ctx.cand)
	ref, err := newReference(ctx, DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	c := slices.IndexFunc(ref, func(col refColumn) bool { return col.vm == ch.vm })
	if c < 0 {
		t.Fatal("the fixture's first round moves nothing")
	}
	for name, perturb := range map[string]func(col *refColumn){
		"normalizer":       func(col *refColumn) { col.cur = math.Nextafter(col.cur, 2) },
		"best probability": func(col *refColumn) { col.p = math.Nextafter(col.p, 0) },
		"best PM":          func(col *refColumn) { col.best++ },
		"gain":             func(col *refColumn) { col.gain = math.Nextafter(col.gain, math.Inf(1)) },
	} {
		saved := ref[c]
		perturb(&ref[c])
		err := ctx.checkRound(ref, ch, 1.05)
		ref[c] = saved
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("VM %d", ch.vm.ID)) {
			t.Errorf("a perturbed %s: %v, want an error naming VM %d", name, err, ch.vm.ID)
		}
	}
	if err := ctx.checkRound(ref, ch, 1.05); err != nil {
		t.Fatal(err)
	}
}

// TestSelfAuditOptionVerifiesEveryApply: under SelfAudit every round of a
// pass — each move and the round that ends the pass — is held to one cold
// reference (auditRound, timed as kernel_build), on the paper's factors
// and with a price term appended, and the audited pass moves as an
// unaudited one does.
func TestSelfAuditOptionVerifiesEveryApply(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	for _, factors := range [][]Factor{DefaultFactors(), append(DefaultFactors(), offsetPrices(100))} {
		plainCtx, _ := spreadState(t, 100, 260, 11)
		plain, err := ConsolidateWith(plainCtx, factors, params, MatrixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, _ := spreadState(t, 100, 260, 11)
		ctx.SelfAudit, ctx.Obs = true, obs.New()
		audited, err := ConsolidateWith(ctx, factors, params, MatrixOptions{})
		if err != nil {
			t.Fatalf("%s: %v", factorNames(factors), err)
		}
		if len(audited) < 2 {
			t.Fatalf("%s: %d moves; self-audit barely exercised", factorNames(factors), len(audited))
		}
		assertMovesEqual(t, plain, audited)
		if got := ctx.Obs.Phase("kernel_build").Calls(); got != int64(len(audited)+1) {
			t.Errorf("%s: %d cold builds over a pass of %d moves, want one a round", factorNames(factors), got, len(audited))
		}
	}
}

// TestConsolidateWithSelfAuditMatchesPlain: the audited pass — the lazy
// rounds on the default factors and on the default factors with a price
// term appended, each round held to a cold reference — must pass its own
// checks and emit the moves of Algorithm 1 run on the cold reference.
func TestConsolidateWithSelfAuditMatchesPlain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factors []Factor
	}{
		{"price", append(DefaultFactors(), offsetPrices(100))},
		{"default-sparse", DefaultFactors()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := spreadState(t, 100, 260, 11)
			b, _ := spreadState(t, 100, 260, 11)
			plain := denseConsolidate(t, a, tc.factors, DefaultParams())
			if len(plain) == 0 {
				t.Fatal("no moves; self-audit never exercised")
			}
			b.SelfAudit = true
			audited, err := ConsolidateWith(b, tc.factors, DefaultParams(), MatrixOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertMovesEqual(t, plain, audited)
		})
	}
}
