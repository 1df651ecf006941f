// Package vector implements the K-dimensional resource vectors used
// throughout the placement framework.
//
// The paper (Section III.A) models a VM request as a K+1 dimensional vector
// whose first K components are resource demands (CPU cores, memory, ...)
// and whose last component is the estimated runtime; a PM's capacity and
// current occupation are K dimensional vectors. This package provides the
// K-dimensional arithmetic: feasibility checks (Eq. 2), the product
// utilization U_j = Π_k C_j(k)/C_j^max(k) used by the energy-efficiency
// factor (Section III.B.4), and general element-wise helpers.
package vector

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Epsilon is the tolerance used for floating-point comparisons of resource
// quantities. Resource amounts in this codebase are sums and differences of
// user-supplied values, so exact equality is too strict while 1e-9 is far
// below any meaningful resource granularity (a byte of memory, a millicore).
const Epsilon = 1e-9

// V is a K-dimensional resource vector. The zero value is a valid empty
// vector of dimension 0. Component k holds the quantity of resource type k;
// the meaning of each index (CPU, memory, ...) is established by the caller
// and must be consistent across all vectors that interact.
type V []float64

// ErrDimensionMismatch is returned (or wrapped) when two vectors of
// different dimensions are combined.
var ErrDimensionMismatch = errors.New("vector: dimension mismatch")

// New returns a vector with the given components.
func New(components ...float64) V {
	v := make(V, len(components))
	copy(v, components)
	return v
}

// Zero returns the zero vector of dimension k.
func Zero(k int) V { return make(V, k) }

// Dim reports the dimension K of the vector.
func (v V) Dim() int { return len(v) }

// Clone returns an independent copy of v.
func (v V) Clone() V {
	c := make(V, len(v))
	copy(c, v)
	return c
}

// IsZero reports whether every component is zero within Epsilon.
func (v V) IsZero() bool {
	for _, x := range v {
		if math.Abs(x) > Epsilon {
			return false
		}
	}
	return true
}

// NonNegative reports whether every component is >= 0 within Epsilon.
func (v V) NonNegative() bool {
	for _, x := range v {
		if x < -Epsilon {
			return false
		}
	}
	return true
}

func (v V) checkDim(w V) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// Add returns v + w. It panics if the dimensions differ: mixing vectors of
// different dimensions is a programming error, not a runtime condition.
func (v V) Add(w V) V {
	v.checkDim(w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. It panics if the dimensions differ.
func (v V) Sub(w V) V {
	v.checkDim(w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// AddInPlace adds w into v without allocating.
func (v V) AddInPlace(w V) {
	v.checkDim(w)
	for i := range v {
		v[i] += w[i]
	}
}

// SubInPlace subtracts w from v without allocating.
func (v V) SubInPlace(w V) {
	v.checkDim(w)
	for i := range v {
		v[i] -= w[i]
	}
}

// Scale returns v multiplied component-wise by s.
func (v V) Scale(s float64) V {
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

// LE reports whether v <= w component-wise within Epsilon.
func (v V) LE(w V) bool {
	v.checkDim(w)
	for i := range v {
		if v[i] > w[i]+Epsilon {
			return false
		}
	}
	return true
}

// Fits reports whether a demand of v fits on top of an occupation used
// within a capacity cap, i.e. used + v <= cap component-wise. This is the
// resource-feasibility predicate of Eq. 2 in the paper: p_res = 1 iff
// R_i(k) + C_j(k) <= C_j^max(k) for every resource type k.
func (v V) Fits(used, cap V) bool {
	v.checkDim(used)
	v.checkDim(cap)
	for i := range v {
		if used[i]+v[i] > cap[i]+Epsilon {
			return false
		}
	}
	return true
}

// Utilization returns the product utilization of an occupation used under
// capacity cap: U = Π_k used(k)/cap(k) (Section III.B.4 of the paper).
// A zero-capacity component contributes factor 0 (the resource cannot be
// used at all, so joint utilization is 0) unless the corresponding usage is
// also zero, in which case the component is skipped: a PM that simply does
// not expose a resource type should not nullify its utilization.
func Utilization(used, cap V) float64 {
	used.checkDim(cap)
	u := 1.0
	for i := range used {
		if cap[i] <= Epsilon {
			if used[i] <= Epsilon {
				continue
			}
			return 0
		}
		f := used[i] / cap[i]
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		u *= f
	}
	return u
}

// Sum returns the sum of all components.
func (v V) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Equal reports whether v and w are equal component-wise within Epsilon.
// Vectors of different dimensions are never equal.
func (v V) Equal(w V) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > Epsilon {
			return false
		}
	}
	return true
}

// DivMin returns the minimum over components of cap(k)/v(k) for components
// where v(k) > 0, i.e. how many copies of demand v fit inside cap ignoring
// integrality. It returns +Inf if v has no positive component (an empty
// demand fits infinitely often). This computes W_j, the maximum number of
// minimal VMs a PM can host (Section III.B.4), before flooring.
func DivMin(cap, v V) float64 {
	cap.checkDim(v)
	m := math.Inf(1)
	for i := range v {
		if v[i] > Epsilon {
			if r := cap[i] / v[i]; r < m {
				m = r
			}
		}
	}
	return m
}

// String renders the vector as "[a, b, ...]" with compact formatting.
func (v V) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", x)
	}
	b.WriteByte(']')
	return b.String()
}

// Validate returns an error if the vector contains NaN, infinite, or
// negative components. Resource demands and capacities must be finite and
// non-negative.
func (v V) Validate() error {
	for i, x := range v {
		switch {
		case math.IsNaN(x):
			return fmt.Errorf("vector: component %d is NaN", i)
		case math.IsInf(x, 0):
			return fmt.Errorf("vector: component %d is infinite", i)
		case x < 0:
			return fmt.Errorf("vector: component %d is negative (%g)", i, x)
		}
	}
	return nil
}
