package core

import "repro/internal/cluster"

// This file compiles a factor list into a term program: the paper's four
// factors are replaced by the same arithmetic on the Context's per-class
// constants and the matrix's p_vir memo instead of dispatching through the
// Factor interface per cell (see DESIGN.md §7). Factors the compiler does
// not recognize (user-supplied extras) are composed on top through the
// interface in their original position (a list of extras alone is Joint's
// own loop), so p_ij is bit-identical to Joint for any factor list: each
// known factor is the exact same arithmetic on bit-identical operands, and
// multiplication order is preserved. The canonical program (res, vir, rel,
// eff) runs cell by cell only inside a reference build: production passes
// evaluate it a score group at a time (candidates.go, bound.go), and the
// dense Matrix walks it to check them.

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

// Canonical reports whether factors are exactly the paper's four in
// canonical order (res, vir, rel, eff). It is the one engine selector: a
// canonical list is evaluated on the candidate index (the lazy rounds of
// bound.go, the arrival argmax over score groups), any other list on the
// dense Matrix.
func Canonical(factors []Factor) bool {
	if len(factors) != 4 {
		return false
	}
	_, ok0 := factors[0].(ResourceFactor)
	_, ok1 := factors[1].(VirtualizationFactor)
	_, ok2 := factors[2].(ReliabilityFactor)
	_, ok3 := factors[3].(EfficiencyFactor)
	return ok0 && ok1 && ok2 && ok3
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
