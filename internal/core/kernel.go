package core

import (
	"fmt"
	"strings"
)

// This file reads a factor list as the candidate index evaluates it (form),
// and names the factor that puts any other list outside the covered family
// (CheckFactors). The cold reference (reference.go) evaluates any list,
// through Joint.

// form is a factor list as the candidate index evaluates it: an in-order
// subsequence of the paper's four, (res, vir, rel, eff), that starts with
// res, optionally followed by one *PriceFactor — the covered family
// (DESIGN.md §13). A factor the list drops is the constant 1 wherever the
// index would use it (the group values and products, the p_vir per class,
// the hosted cell, the membership exclusions), which is bit-exact: x·1 = x
// in IEEE 754 and the multiplication order is the cell's. The zero form is
// the paper's four.
type form struct {
	noVir, noRel, noEff bool
	price               *PriceFactor
}

// formOf reads factors as a form, or fails naming the factor that puts the
// list outside the covered family (uncovered). It matches the family's
// slots in order, one type assertion each — the slots are distinct and
// ordered, so the greedy match is the only one — and builds the error
// apart. A Context reads a run's list once (use).
func formOf(factors []Factor) (form, error) {
	f, n, i := form{noVir: true, noRel: true, noEff: true}, len(factors), 0
	if i < n {
		if _, ok := factors[i].(ResourceFactor); ok {
			i++
		}
	}
	if i == 0 {
		return form{}, uncovered(factors)
	}
	if i < n {
		if _, ok := factors[i].(VirtualizationFactor); ok {
			f.noVir, i = false, i+1
		}
	}
	if i < n {
		if _, ok := factors[i].(ReliabilityFactor); ok {
			f.noRel, i = false, i+1
		}
	}
	if i < n {
		if _, ok := factors[i].(EfficiencyFactor); ok {
			f.noEff, i = false, i+1
		}
	}
	if i < n {
		if p, ok := factors[i].(*PriceFactor); ok && p != nil {
			f.price, i = p, i+1
		}
	}
	if i < n {
		return form{}, uncovered(factors)
	}
	return f, nil
}

// slotOf is fac's slot in the covered family's order (res, vir, rel, eff,
// price), or -1 for a factor the candidate index does not evaluate.
func slotOf(fac Factor) int {
	switch fac := fac.(type) {
	case ResourceFactor:
		return 0
	case VirtualizationFactor:
		return 1
	case ReliabilityFactor:
		return 2
	case EfficiencyFactor:
		return 3
	case *PriceFactor:
		if fac != nil {
			return 4
		}
	}
	return -1
}

// uncovered is formOf's error: it names the factor that puts factors, a
// list formOf refused, outside the covered family.
func uncovered(factors []Factor) error {
	if len(factors) == 0 {
		return fmt.Errorf("core: the factor list is empty")
	}
	names, last := factorNames(factors), -1
	for i, fac := range factors {
		at := slotOf(fac)
		switch {
		case at < 0:
			return fmt.Errorf("core: factor list %s: factor %d, %s (%T), is not one the candidate index evaluates", names, i+1, factorName(fac), fac)
		case i == 0 && at != 0:
			return fmt.Errorf("core: factor list %s: it starts with %s, not res", names, factorName(fac))
		case at <= last:
			return fmt.Errorf("core: factor list %s: factor %d, %s, follows %s; the index takes res, vir, rel, eff in that order, then at most one price term", names, i+1, factorName(fac), factorName(factors[i-1]))
		}
		last = at
	}
	return fmt.Errorf("core: factor list %s is covered", names)
}

// CheckFactors reports whether the candidate index evaluates factors (the
// covered family, form), naming the factor that puts any other list
// outside. sim.New refuses a dynamic scheme whose list fails it.
func CheckFactors(factors []Factor) error {
	_, err := formOf(factors)
	return err
}

func factorName(f Factor) string {
	if f == nil {
		return "nil"
	}
	return f.Name()
}

func factorNames(factors []Factor) string {
	names := make([]string, len(factors))
	for i, f := range factors {
		names[i] = factorName(f)
	}
	return "[" + strings.Join(names, " ") + "]"
}
