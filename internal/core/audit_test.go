package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// Diff compares two matrices bit-for-bit: dimensions, row/column
// identities, every probability, the column trackers, and the Best
// extraction. A nil return means the matrices are interchangeable for
// Algorithm 1. The tests hold builds made on a checked-out pool, on twin
// fleets and on perturbed cells to each other with it.
func (m *Matrix) Diff(o *Matrix) error {
	if len(m.pms) != len(o.pms) || len(m.vms) != len(o.vms) {
		return fmt.Errorf("core: matrix %dx%d != %dx%d", len(m.pms), len(m.vms), len(o.pms), len(o.vms))
	}
	for r := range m.pms {
		if m.pms[r].ID != o.pms[r].ID {
			return fmt.Errorf("core: row %d is PM %d vs PM %d", r, m.pms[r].ID, o.pms[r].ID)
		}
	}
	for c := range m.vms {
		if m.vms[c].ID != o.vms[c].ID {
			return fmt.Errorf("core: column %d is VM %d vs VM %d", c, m.vms[c].ID, o.vms[c].ID)
		}
	}
	for r := range m.pms {
		for c := range m.vms {
			if a, b := m.p[r][c], o.p[r][c]; a != b {
				return fmt.Errorf("core: p[%d][%d] = %v vs %v (PM %d, VM %d)",
					r, c, a, b, m.pms[r].ID, m.vms[c].ID)
			}
		}
	}
	return m.colTrackers.diff(&o.colTrackers)
}

// diff compares two tracker sets column for column, then the Best
// extraction; every value must be bit-identical.
func (t *colTrackers) diff(o *colTrackers) error {
	for c := range t.curRow {
		if t.curRow[c] != o.curRow[c] || t.curProb[c] != o.curProb[c] {
			return fmt.Errorf("core: column %d normalizer (row %d, p %g) vs (row %d, p %g)",
				c, t.curRow[c], t.curProb[c], o.curRow[c], o.curProb[c])
		}
		if t.bestRow[c] != o.bestRow[c] || t.bestGain[c] != o.bestGain[c] {
			return fmt.Errorf("core: column %d best (row %d, gain %g) vs (row %d, gain %g)",
				c, t.bestRow[c], t.bestGain[c], o.bestRow[c], o.bestGain[c])
		}
		if t.bestRow[c] >= 0 && t.bestP[c] != o.bestP[c] {
			return fmt.Errorf("core: column %d bestP %g vs %g", c, t.bestP[c], o.bestP[c])
		}
	}
	tr, tc, tg, tok := t.Best()
	or, oc, og, ook := o.Best()
	if tok != ook || (tok && (tr != or || tc != oc || tg != og)) {
		return fmt.Errorf("core: Best (%d, %d, %g, %t) vs (%d, %d, %g, %t)", tr, tc, tg, tok, or, oc, og, ook)
	}
	return nil
}

func TestDiffDetectsPerturbation(t *testing.T) {
	ctx, factors, vms := paperExample()
	a, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Diff(b); err != nil {
		t.Fatalf("identical matrices diff: %v", err)
	}
	b.p[1][2] += 1e-12
	if err := a.Diff(b); err == nil {
		t.Fatal("Diff missed a one-ulp probability perturbation")
	} else if !strings.Contains(err.Error(), "p[") {
		t.Fatalf("Diff error %q does not locate the cell", err)
	}
}

// TestSelfAuditOptionVerifiesEveryApply: under SelfAudit every round of a
// pass — each move and the round that ends the pass — is held to one cold
// dense build (auditRound, timed as kernel_build), on the paper's factors
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
// term appended, each round held to a cold dense build — must pass its own
// checks and emit the moves of the cold dense reference.
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
