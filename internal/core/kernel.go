package core

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
)

// This file compiles a factor list into a term program: the paper's four
// factors are replaced by the same arithmetic on the Context's per-class
// constants and the matrix's p_vir memo instead of dispatching through the
// Factor interface per cell (see DESIGN.md §7). Factors the compiler does
// not recognize (user-supplied extras) are composed on top through the
// interface in their original position (a list of extras alone is Joint's
// own loop), so p_ij is bit-identical to Joint for any factor list: each
// known factor is the exact same arithmetic on bit-identical operands, and
// multiplication order is preserved. The program runs cell by cell only in
// a cold reference — the dense Matrix and RankPlacements: runs evaluate
// their list a score group at a time (candidates.go, bound.go), which only
// the lists of the covered family (form, below) allow.

// termOp identifies how one factor in the compiled program is evaluated.
type termOp int

const (
	opRes     termOp = iota // ResourceFactor: feasibility predicate
	opVir                   // VirtualizationFactor: per-(class, column) memo
	opRel                   // ReliabilityFactor: row field read
	opEff                   // EfficiencyFactor: class constants + live utilization
	opGeneric               // any other Factor, via the interface
)

// term is one position of the compiled factor program.
type term struct {
	op termOp
	f  Factor // only for opGeneric
}

// program is a compiled factor list.
type program struct {
	terms []term
}

// compile translates a factor list into a term program, appending to dst
// (pass a reused slice truncated to zero for allocation-free recompiles).
func compile(dst []term, factors []Factor) program {
	prog := program{terms: dst}
	for _, f := range factors {
		t := term{op: opGeneric, f: f}
		switch f.(type) {
		case ResourceFactor:
			t = term{op: opRes}
		case VirtualizationFactor:
			t = term{op: opVir}
		case ReliabilityFactor:
			t = term{op: opRel}
		case EfficiencyFactor:
			t = term{op: opEff}
		}
		prog.terms = append(prog.terms, t)
	}
	return prog
}

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

// cell evaluates p_ij for (pm, vm): info is pm's class-table entry, vir
// the memoized non-host virtualization penalty of (pm's class, vm), and
// hosted reports whether pm currently hosts vm, exactly as in Joint. The
// multiplication order matches Joint, with 1-valued terms elided (IEEE 754
// multiplication by 1.0 is the identity), so results are bit-identical.
func (prog *program) cell(ctx *Context, info *classInfo, vir float64, pm *cluster.PM, vm *cluster.VM, hosted bool) float64 {
	p := 1.0
	for _, t := range prog.terms {
		var q float64
		switch t.op {
		case opRes:
			if !hosted && !pm.CanHost(vm.Demand) {
				return 0
			}
			continue
		case opVir:
			if hosted {
				continue
			}
			q = vir
		case opRel:
			q = pm.Reliability()
		case opEff:
			if hosted {
				q = effProbability(info, pm.Utilization())
			} else {
				q = effProbability(info, pm.UtilizationWith(vm.Demand))
			}
		default:
			q = t.f.Probability(ctx, vm, pm, hosted)
		}
		p *= q
		if p == 0 {
			return 0
		}
	}
	return p
}
