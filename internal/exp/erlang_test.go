package exp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestErlangBKnownValues(t *testing.T) {
	// Classic teletraffic table values.
	cases := []struct {
		c    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{5, 3, 0.11005},
		{10, 5, 0.018385},
	}
	for _, tc := range cases {
		got := ErlangB(tc.c, tc.a)
		if math.Abs(got-tc.want) > 2e-5 {
			t.Errorf("ErlangB(%d, %g) = %.6f, want %.5f", tc.c, tc.a, got, tc.want)
		}
	}
}

func TestErlangBEdges(t *testing.T) {
	if got := ErlangB(5, 0); got != 0 {
		t.Errorf("zero load blocking = %g", got)
	}
	if got := ErlangB(0, 2); got != 1 {
		t.Errorf("zero servers blocking = %g", got)
	}
}

func TestErlangBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ErlangB(-1, 1)
}

func TestErlangCKnownValues(t *testing.T) {
	// C(c,a) from B via the standard identity; spot-check c=2, a=1:
	// B = 0.2, C = 2*0.2 / (2 - 1*0.8) = 1/3.
	if got := ErlangC(2, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("ErlangC(2,1) = %g, want 1/3", got)
	}
	// Single server: C(1, a) = a for a < 1 (waiting prob = utilization).
	if got := ErlangC(1, 0.6); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("ErlangC(1,0.6) = %g, want 0.6", got)
	}
}

func TestErlangCOverload(t *testing.T) {
	if got := ErlangC(4, 4); got != 1 {
		t.Errorf("saturated C = %g, want 1", got)
	}
	if got := ErlangC(4, 9); got != 1 {
		t.Errorf("overloaded C = %g, want 1", got)
	}
	if got := ErlangC(0, 0); got != 0 {
		t.Errorf("empty system C = %g", got)
	}
	if got := ErlangC(0, 1); got != 1 {
		t.Errorf("no servers C = %g", got)
	}
}

func TestMeanWaitMM_c(t *testing.T) {
	// M/M/1 with rho = 0.5: W_q = rho / (mu - lambda) = 0.5/(1-0.5) = 1.
	if got := MeanWaitMM_c(1, 0.5, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("M/M/1 wait = %g, want 1", got)
	}
	if got := MeanWaitMM_c(2, 0, 1); got != 0 {
		t.Errorf("no-arrival wait = %g", got)
	}
	if got := MeanWaitMM_c(1, 2, 1); !math.IsInf(got, 1) {
		t.Errorf("overload wait = %g, want +Inf", got)
	}
}

func TestServersForWaitProbability(t *testing.T) {
	a := 20.0
	c := ServersForWaitProbability(a, 0.05)
	if ErlangC(c, a) > 0.05 {
		t.Errorf("c = %d does not meet target", c)
	}
	if c > int(a) && ErlangC(c-1, a) <= 0.05 {
		t.Errorf("c = %d not minimal", c)
	}
	if got := ServersForWaitProbability(0, 0.05); got != 0 {
		t.Errorf("zero-load servers = %d", got)
	}
}

func TestServersForWaitProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ServersForWaitProbability(5, 0)
}

// TestErlangEdgeTable sweeps the formulas across the regimes the QoS
// cross-check can hit at runtime: empty systems, saturation, deep
// overload, and pools far larger than the paper's fleet. Exact values
// (where the teletraffic tables give one) use NaN as "property-check
// only" sentinel otherwise; every row must still yield probabilities
// with C >= B.
func TestErlangEdgeTable(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name         string
		c            int
		a            float64
		wantB, wantC float64
	}{
		{"zero servers, zero load", 0, 0, 0, 0},
		{"zero servers, positive load", 0, 3, 1, 1},
		{"zero load", 8, 0, 0, 0},
		{"load equals servers", 4, 4, 0.31068, 1},
		{"load exceeds servers", 2, 10, 0.81967, 1},
		{"deep overload", 10, 1e6, nan, 1},
		{"large stable pool", 1000, 900, nan, nan},
		{"large pool near saturation", 1000, 999.5, nan, nan},
		{"very large pool", 10000, 9000, nan, nan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, c := ErlangB(tc.c, tc.a), ErlangC(tc.c, tc.a)
			for name, v := range map[string]float64{"B": b, "C": c} {
				if math.IsNaN(v) || v < 0 || v > 1 {
					t.Errorf("Erlang%s(%d, %g) = %g, not a probability", name, tc.c, tc.a, v)
				}
			}
			if c < b-1e-12 {
				t.Errorf("C (%g) < B (%g): waiting system cannot beat loss system", c, b)
			}
			if !math.IsNaN(tc.wantB) && math.Abs(b-tc.wantB) > 2e-5 {
				t.Errorf("ErlangB(%d, %g) = %.6f, want %.5f", tc.c, tc.a, b, tc.wantB)
			}
			if !math.IsNaN(tc.wantC) && math.Abs(c-tc.wantC) > 2e-5 {
				t.Errorf("ErlangC(%d, %g) = %.6f, want %.5f", tc.c, tc.a, c, tc.wantC)
			}
		})
	}
}

// TestLargeNStability exercises the recurrence at fleet sizes three
// orders of magnitude past Table II: the results must stay finite,
// monotone in c, and the sizing search must still terminate minimally.
func TestLargeNStability(t *testing.T) {
	if w := MeanWaitMM_c(1000, 900, 1); math.IsNaN(w) || w < 0 || math.IsInf(w, 0) {
		t.Errorf("large-pool mean wait = %g, want finite non-negative", w)
	}
	if c1, c2 := ErlangC(1000, 900), ErlangC(1100, 900); c2 > c1+1e-12 {
		t.Errorf("adding servers increased wait probability: %g -> %g", c1, c2)
	}
	a := 500.0
	c := ServersForWaitProbability(a, 0.05)
	if c < int(a) {
		t.Errorf("sizing returned %d servers for %g Erlangs: unstable", c, a)
	}
	if ErlangC(c, a) > 0.05 {
		t.Errorf("c = %d does not meet the 5%% target", c)
	}
	if ErlangC(c-1, a) <= 0.05 {
		t.Errorf("c = %d not minimal", c)
	}
}

// Property: Erlang B and C are probabilities, C >= B (a waiting system
// holds arrivals a loss system would drop), and both decrease as servers
// are added.
func TestQuickErlangProperties(t *testing.T) {
	f := func(cRaw, aRaw uint8) bool {
		c := int(cRaw%50) + 1
		a := float64(aRaw) / 8
		b1, c1 := ErlangB(c, a), ErlangC(c, a)
		b2, c2 := ErlangB(c+1, a), ErlangC(c+1, a)
		if b1 < 0 || b1 > 1 || c1 < 0 || c1 > 1 {
			return false
		}
		if c1 < b1-1e-12 {
			return false
		}
		return b2 <= b1+1e-12 && c2 <= c1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
