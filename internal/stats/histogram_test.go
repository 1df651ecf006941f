package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 1, 2, 4)
	if len(h.count) != 3 {
		t.Fatalf("bins = %d, want 3", len(h.count))
	}
	for _, x := range []float64{0, 0.5, 1, 1.5, 3.9, 4, -1} {
		h.Add(x)
	}
	if h.count[0] != 2 { // 0, 0.5
		t.Errorf("bin 0 = %d, want 2", h.count[0])
	}
	if h.count[1] != 2 { // 1, 1.5
		t.Errorf("bin 1 = %d, want 2", h.count[1])
	}
	if h.count[2] != 1 { // 3.9
		t.Errorf("bin 2 = %d, want 1", h.count[2])
	}
	if h.Over != 1 || h.Under != 1 {
		t.Errorf("over/under = %d/%d, want 1/1", h.Over, h.Under)
	}
}

func TestHistogramEdgeSample(t *testing.T) {
	h := NewHistogram(0, 10, 20)
	h.Add(10) // exactly on an interior edge -> bin 1
	if h.count[1] != 1 || h.count[0] != 0 {
		t.Errorf("edge sample landed in bins %d/%d", h.count[0], h.count[1])
	}
	h.Add(20) // on last edge -> overflow
	if h.Over != 1 {
		t.Errorf("last-edge sample Over = %d, want 1", h.Over)
	}
}

func TestHistogramBinRange(t *testing.T) {
	h := NewHistogram(0, 5, 10)
	lo, hi := h.BinRange(1)
	if lo != 5 || hi != 10 {
		t.Errorf("BinRange(1) = %g, %g", lo, hi)
	}
}

func TestHistogramPanicsOnBadEdges(t *testing.T) {
	for name, f := range map[string]func(){
		"too few":        func() { NewHistogram(1) },
		"not increasing": func() { NewHistogram(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	for _, x := range []float64{0.5, 0.6, 1.5, -3, 9} {
		h.Add(x)
	}
	s := h.String()
	if !strings.Contains(s, "underflow 1") || !strings.Contains(s, "overflow 1") {
		t.Errorf("String missing under/overflow: %q", s)
	}
	if !strings.Contains(s, "#") {
		t.Errorf("String missing bars: %q", s)
	}
}

// Property: every sample is accounted for exactly once.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(raw []int8) bool {
		h := NewHistogram(-50, -40, -30, -20, -10, 0, 10, 20, 30, 40, 50)
		for _, x := range raw {
			h.Add(float64(x))
		}
		inBins := h.Under + h.Over
		for _, c := range h.count {
			inBins += c
		}
		return inBins == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
