package core

import (
	"strings"
	"testing"
)

func TestSelfCheckCleanAfterApplies(t *testing.T) {
	ctx, factors, vms := paperExample()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SelfCheck(); err != nil {
		t.Fatalf("fresh matrix fails self-check: %v", err)
	}
	for i := 0; i < 3; i++ {
		r, c, _, ok := m.Best()
		if !ok {
			break
		}
		if err := m.Apply(r, c); err != nil {
			t.Fatal(err)
		}
		if err := m.SelfCheck(); err != nil {
			t.Fatalf("self-check after apply %d: %v", i, err)
		}
	}
}

func TestSelfCheckDetectsCorruptedTracker(t *testing.T) {
	ctx, factors, vms := paperExample()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	m.bestGain[0] *= 1.5 // simulate a tracker gone stale
	if err := m.SelfCheck(); err == nil {
		t.Fatal("self-check missed a corrupted best-gain tracker")
	}
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

func TestSelfAuditOptionVerifiesEveryApply(t *testing.T) {
	ctx, factors, vms := paperExample()
	m, err := NewMatrixWith(ctx, factors, vms, MatrixOptions{SelfAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for {
		r, c, gain, ok := m.Best()
		if !ok || gain <= 1.05 {
			break
		}
		if err := m.Apply(r, c); err != nil {
			t.Fatalf("self-audited apply %d: %v", applied, err)
		}
		applied++
		if applied > 20 {
			t.Fatal("runaway migration loop")
		}
	}
	if applied == 0 {
		t.Fatal("paper example produced no migrations; self-audit never exercised")
	}
}

// TestConsolidateWithSelfAuditMatchesPlain: the audited pass — on the
// paper's table factor the dense Matrix, on the default factors the
// candidate-set engine replaying every Apply against a cold dense rebuild —
// must pass its own checks and emit the moves of an unaudited dense Matrix
// built by constructor.
func TestConsolidateWithSelfAuditMatchesPlain(t *testing.T) {
	tableA, tableFactors, _ := paperExample()
	tableB, _, _ := paperExample()
	fleetA, _ := spreadState(t, 100, 260, 11)
	fleetB, _ := spreadState(t, 100, 260, 11)
	for _, tc := range []struct {
		name    string
		a, b    *Context
		factors []Factor
	}{
		{"table-dense", tableA, tableB, tableFactors},
		{"default-sparse", fleetA, fleetB, DefaultFactors()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := denseConsolidate(t, tc.a, tc.factors, DefaultParams(), MatrixOptions{})
			if len(plain) == 0 {
				t.Fatal("no moves; self-audit never exercised")
			}
			audited, err := ConsolidateWith(tc.b, tc.factors, DefaultParams(), MatrixOptions{SelfAudit: true})
			if err != nil {
				t.Fatal(err)
			}
			assertMovesEqual(t, plain, audited)
		})
	}
}
