package vector

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndClone(t *testing.T) {
	v := New(1, 2, 3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone aliases the original: v[0] = %g", v[0])
	}
}

func TestZero(t *testing.T) {
	z := Zero(4)
	if z.Dim() != 4 || !z.IsZero() {
		t.Errorf("Zero(4) = %v", z)
	}
	if !Zero(0).IsZero() {
		t.Error("empty vector should be zero")
	}
}

func TestIsZeroTolerance(t *testing.T) {
	if !New(0, Epsilon/2).IsZero() {
		t.Error("sub-epsilon components should count as zero")
	}
	if New(0, 1e-3).IsZero() {
		t.Error("1e-3 should not count as zero")
	}
}

func TestAddSub(t *testing.T) {
	a, b := New(1, 2), New(3, 5)
	if got := a.Add(b); !got.Equal(New(4, 7)) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Equal(New(2, 3)) {
		t.Errorf("Sub = %v", got)
	}
	// Originals untouched.
	if !a.Equal(New(1, 2)) || !b.Equal(New(3, 5)) {
		t.Error("Add/Sub mutated operands")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := New(1, 2)
	a.AddInPlace(New(1, 1))
	if !a.Equal(New(2, 3)) {
		t.Errorf("AddInPlace = %v", a)
	}
	a.SubInPlace(New(2, 3))
	if !a.IsZero() {
		t.Errorf("SubInPlace = %v", a)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched dims should panic")
		}
	}()
	New(1).Add(New(1, 2))
}

func TestScale(t *testing.T) {
	if got := New(1, 2).Scale(2.5); !got.Equal(New(2.5, 5)) {
		t.Errorf("Scale = %v", got)
	}
}

func TestLE(t *testing.T) {
	cases := []struct {
		a, b V
		want bool
	}{
		{New(1, 2), New(1, 2), true},
		{New(1, 2), New(2, 3), true},
		{New(2, 2), New(1, 3), false},
		{New(1, 1), New(1+Epsilon/2, 1), true}, // within tolerance
	}
	for _, c := range cases {
		if got := c.a.LE(c.b); got != c.want {
			t.Errorf("%v.LE(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFits(t *testing.T) {
	cap := New(8, 16)
	used := New(6, 10)
	if !New(2, 6).Fits(used, cap) {
		t.Error("exact fit should succeed")
	}
	if New(2.1, 1).Fits(used, cap) {
		t.Error("CPU overflow should fail")
	}
	if New(0, 6.1).Fits(used, cap) {
		t.Error("memory overflow should fail")
	}
	if !Zero(2).Fits(cap, cap) {
		t.Error("zero demand fits on a full PM")
	}
}

func TestUtilization(t *testing.T) {
	cap := New(8, 16)
	if u := Utilization(New(4, 8), cap); math.Abs(u-0.25) > 1e-12 {
		t.Errorf("Utilization = %g, want 0.25", u)
	}
	if u := Utilization(Zero(2), cap); u != 0 {
		t.Errorf("idle utilization = %g, want 0", u)
	}
	if u := Utilization(cap, cap); math.Abs(u-1) > 1e-12 {
		t.Errorf("full utilization = %g, want 1", u)
	}
}

func TestUtilizationZeroCapacity(t *testing.T) {
	// A resource type with zero capacity and zero use is skipped.
	if u := Utilization(New(4, 0), New(8, 0)); math.Abs(u-0.5) > 1e-12 {
		t.Errorf("zero-cap unused = %g, want 0.5", u)
	}
	// Using a resource a PM does not have yields 0.
	if u := Utilization(New(4, 1), New(8, 0)); u != 0 {
		t.Errorf("zero-cap used = %g, want 0", u)
	}
}

func TestUtilizationClamped(t *testing.T) {
	// Slight numeric overshoot must not push utilization above 1.
	if u := Utilization(New(8.0000000001), New(8)); u > 1 {
		t.Errorf("Utilization = %g, want <= 1", u)
	}
	if u := Utilization(New(-0.0000000001), New(8)); u < 0 {
		t.Errorf("Utilization = %g, want >= 0", u)
	}
}

func TestSum(t *testing.T) {
	if got := New(3, -1, 7).Sum(); got != 9 {
		t.Errorf("Sum = %g, want 9", got)
	}
	var empty V
	if empty.Sum() != 0 {
		t.Error("empty vector sum should be 0")
	}
}

func TestEqualDifferentDims(t *testing.T) {
	if New(1).Equal(New(1, 0)) {
		t.Error("different dims must not be equal")
	}
}

func TestDivMin(t *testing.T) {
	if got := DivMin(New(8, 16), New(1, 4)); got != 4 {
		t.Errorf("DivMin = %g, want 4 (memory-bound)", got)
	}
	if got := DivMin(New(8, 16), New(2, 1)); got != 4 {
		t.Errorf("DivMin = %g, want 4 (cpu-bound)", got)
	}
	if got := DivMin(New(8, 16), Zero(2)); !math.IsInf(got, 1) {
		t.Errorf("DivMin with zero demand = %g, want +Inf", got)
	}
}

func TestNonNegative(t *testing.T) {
	if !New(0, 1).NonNegative() {
		t.Error("non-negative vector misreported")
	}
	if New(-1, 1).NonNegative() {
		t.Error("negative vector misreported")
	}
	if !New(-Epsilon / 2).NonNegative() {
		t.Error("sub-epsilon negative should pass")
	}
}

func TestString(t *testing.T) {
	s := New(1, 2.5).String()
	if !strings.Contains(s, "1") || !strings.Contains(s, "2.5") {
		t.Errorf("String = %q", s)
	}
}

func TestValidate(t *testing.T) {
	if err := New(1, 2).Validate(); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	for _, bad := range []V{New(math.NaN()), New(math.Inf(1)), New(-1)} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted invalid vector", bad)
		}
	}
}

// Property: Add and Sub are inverse operations.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for _, x := range append(a[:], b[:]...) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true // skip degenerate inputs
			}
		}
		va, vb := New(a[:]...), New(b[:]...)
		got := va.Add(vb).Sub(vb)
		for i := range got {
			// Allow relative error for large magnitudes.
			tol := Epsilon * (1 + math.Abs(a[i]) + math.Abs(b[i]))
			if math.Abs(got[i]-a[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Utilization is always within [0, 1].
func TestQuickUtilizationBounded(t *testing.T) {
	f := func(used, cap [3]uint16) bool {
		u := New(float64(used[0]), float64(used[1]), float64(used[2]))
		c := New(float64(cap[0]), float64(cap[1]), float64(cap[2]))
		x := Utilization(u, c)
		return x >= 0 && x <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Fits is consistent with LE on the summed vector.
func TestQuickFitsConsistent(t *testing.T) {
	f := func(d, u, c [3]uint8) bool {
		dv := New(float64(d[0]), float64(d[1]), float64(d[2]))
		uv := New(float64(u[0]), float64(u[1]), float64(u[2]))
		cv := New(float64(c[0]), float64(c[1]), float64(c[2]))
		return dv.Fits(uv, cv) == uv.Add(dv).LE(cv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DivMin * demand fits within capacity (for integer floor).
func TestQuickDivMinFits(t *testing.T) {
	f := func(c, d [2]uint8) bool {
		cv := New(float64(c[0])+1, float64(c[1])+1) // ensure positive caps
		dv := New(float64(d[0]), float64(d[1]))
		if dv.IsZero() {
			return true
		}
		n := math.Floor(DivMin(cv, dv))
		return dv.Scale(n).LE(cv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkFits(b *testing.B) {
	d, u, c := New(1, 2, 0.5, 4), New(3, 4, 1, 8), New(8, 16, 4, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Fits(u, c)
	}
}

func BenchmarkUtilization(b *testing.B) {
	u, c := New(3, 4, 1, 8), New(8, 16, 4, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Utilization(u, c)
	}
}
