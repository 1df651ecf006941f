package core

import (
	"encoding/binary"
	"math"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// This file implements the factored evaluation kernel: a compiled form of
// the joint probability p_ij = p_res * p_vir * p_rel * p_eff that exploits
// the product structure of Eq. 1 instead of dispatching through the
// generic Factor interface per cell.
//
// The decomposition (see DESIGN.md §7):
//
//   - p_rel depends only on the row (pm.Reliability, a field read);
//   - the class constants behind p_vir and p_eff (W_j, U_j^MIN, eff_j,
//     T_cre + T_mig) depend only on the PM's class, of which a fleet has
//     very few (Table II has 2);
//   - p_vir for a non-host cell depends only on (column, class): the
//     remaining estimate T_re is fixed for the lifetime of a matrix (the
//     clock does not advance during a consolidation pass), so the M*N
//     evaluations collapse to an N*C memo;
//   - p_res and p_eff must read pm.Used live (migrations mutate it), but
//     within a row they depend on the VM only through its demand vector —
//     and real workloads request a handful of standard shapes, so both
//     collapse to a per-(row, demand-shape) memo computed once per row
//     visit (D shapes instead of N columns).
//
// Factors the kernel does not recognize (user-supplied extras) are
// composed on top through the Factor interface in their original
// position, so p_ij remains bit-identical to the generic path for any
// factor list: each known factor is replaced by the exact same arithmetic
// on bit-identical operands, and multiplication order is preserved.

// termOp identifies how one factor in the compiled program is evaluated.
type termOp int

const (
	opRes     termOp = iota // ResourceFactor: feasibility predicate
	opVir                   // VirtualizationFactor: per-(column, class) memo
	opRel                   // ReliabilityFactor: row field read
	opEff                   // EfficiencyFactor: class constants + live utilization
	opGeneric               // any other Factor, via the interface
)

// term is one position of the compiled factor program.
type term struct {
	op termOp
	f  Factor // only for opGeneric
}

// compileTerms translates a factor list into a term program, appending to
// dst (pass a reused slice truncated to zero for allocation-free
// recompiles). known reports whether at least one of the paper's factors
// was recognized; when none is, the kernel adds only overhead and callers
// should stay on the generic path.
func compileTerms(dst []term, factors []Factor) (terms []term, known bool) {
	terms = dst
	for _, f := range factors {
		switch f.(type) {
		case ResourceFactor:
			terms = append(terms, term{op: opRes})
		case VirtualizationFactor:
			terms = append(terms, term{op: opVir})
		case ReliabilityFactor:
			terms = append(terms, term{op: opRel})
		case EfficiencyFactor:
			terms = append(terms, term{op: opEff})
		default:
			terms = append(terms, term{op: opGeneric, f: f})
			continue
		}
		known = true
	}
	return terms, known
}

// kernel is a compiled evaluator bound to a fixed PM row set and VM column
// set. It is built once per Matrix (or once per arrival event) and caches
// everything that is row-, column-, or class-static.
type kernel struct {
	ctx   *Context
	terms []term

	// isDefault marks the common case — exactly the paper's four factors
	// in canonical order — which takes a straight-line row-fill path with
	// no term loop and per-demand-shape memoization.
	isDefault bool

	// infos holds the per-class constants, indexed by compact class
	// index; rowClass maps each row to its class index.
	infos    []*classInfo
	rowClass []int

	// vir memoizes the non-host virtualization penalty per column and
	// class. With C classes this is N*C evaluations of Eq. 3 instead of
	// N*M. It is stored class-major in a 64-byte-aligned slab — one
	// contiguous lane of virStride float64s per class (ncols rounded up
	// to a whole cache line), addressed vir[ci*virStride+c] — so the
	// batched row fill streams one aligned, contiguous lane per row
	// instead of striding through a column-major interleave.
	vir       []float64
	virStride int
	ncols     int

	// hostHead/hostNext/hostPrev index the hosted cells per row (built
	// only for the default program): hostHead[r] heads a doubly-linked,
	// -1-terminated list of the columns row r currently hosts, threaded
	// through hostNext/hostPrev by column. Kept in step with migrations
	// by moveHosted. Nil when no column is hosted (arrival kernels).
	hostHead []int32
	hostNext []int32
	hostPrev []int32

	// demands holds the distinct demand vectors across the columns and
	// demIdx maps each column to its shape. Real traces request few
	// shapes (the Table II workload has 8), so per-row feasibility and
	// efficiency collapse from N to D evaluations.
	demands []vector.V
	demIdx  []int
}

// newKernel compiles factors over the given rows and columns into fresh
// storage. ok is false when no known factor is present (pure user-factor
// matrices), in which case the caller should evaluate generically.
func newKernel(ctx *Context, factors []Factor, pms []*cluster.PM, vms []*cluster.VM) (*kernel, bool) {
	return newKernelInto(&kernScratch{}, ctx, factors, pms, vms)
}

// newKernelInto is newKernel building into reusable scratch storage: the
// returned kernel is ks.kern with every slice and map drawn from ks, so a
// caller that compiles a kernel per event (the arrival path) or per
// control period (matrix builds) allocates nothing once the scratch has
// grown to the working size. The kernel aliases ks and is valid only
// until the next newKernelInto over the same scratch.
func newKernelInto(ks *kernScratch, ctx *Context, factors []Factor, pms []*cluster.PM, vms []*cluster.VM) (*kernel, bool) {
	terms, known := compileTerms(ks.terms[:0], factors)
	ks.terms = terms
	if !known {
		return nil, false
	}
	k := &ks.kern
	*k = kernel{ctx: ctx, terms: terms}
	k.isDefault = len(terms) == 4 &&
		terms[0].op == opRes && terms[1].op == opVir &&
		terms[2].op == opRel && terms[3].op == opEff

	if ks.classIdx == nil {
		ks.classIdx = make(map[*cluster.PMClass]int, 4)
	} else {
		clear(ks.classIdx)
	}
	k.rowClass = growInts(ks.rowClass, len(pms))
	ks.rowClass = k.rowClass
	k.infos = ks.infos[:0]
	for r, pm := range pms {
		ci, seen := ks.classIdx[pm.Class]
		if !seen {
			ci = len(k.infos)
			ks.classIdx[pm.Class] = ci
			k.infos = append(k.infos, ctx.classInfoFor(pm))
		}
		k.rowClass[r] = ci
	}
	ks.infos = k.infos

	nc := len(k.infos)
	k.ncols = len(vms)
	k.virStride = alignUp(len(vms))
	ks.vir, k.vir = alignedFloats(ks.vir, nc*k.virStride)
	for c, vm := range vms {
		tre := vm.RemainingEstimate(ctx.Now)
		for ci := range k.infos {
			overhead := k.infos[ci].overhead
			if vm.Host == cluster.NoPM {
				// Initial placement pays creation only (Eq. 3) —
				// there is nothing to transfer yet.
				overhead = classCreationTime(pms, k.rowClass, ci)
			}
			k.vir[ci*k.virStride+c] = virProbability(tre, overhead)
		}
	}

	if k.isDefault {
		k.internDemands(ks, vms)
		k.buildHostIndex(ks, pms, vms)
	}
	return k, true
}

// internDemands assigns each column a compact demand-shape index, keyed on
// the exact bit patterns of the demand vector so memoized p_res/p_eff
// values are bit-identical to a per-cell evaluation.
func (k *kernel) internDemands(ks *kernScratch, vms []*cluster.VM) {
	k.demIdx = growInts(ks.demIdx, len(vms))
	ks.demIdx = k.demIdx
	if ks.shapes == nil {
		ks.shapes = make(map[string]int, 16)
	} else {
		clear(ks.shapes)
	}
	k.demands = ks.demands[:0]
	key := ks.key
	for c, vm := range vms {
		key = key[:0]
		for _, x := range vm.Demand {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		di, seen := ks.shapes[string(key)]
		if !seen {
			di = len(k.demands)
			ks.shapes[string(key)] = di
			k.demands = append(k.demands, vm.Demand)
		}
		k.demIdx[c] = di
	}
	ks.key = key
	ks.demands = k.demands
}

// classCreationTime returns the CreationTime of the class at compact index
// ci by finding one of its rows. The fleet's class count is tiny, so the
// scan is negligible and only runs for unhosted (arrival) columns.
func classCreationTime(pms []*cluster.PM, rowClass []int, ci int) float64 {
	for r, c := range rowClass {
		if c == ci {
			return pms[r].Class.CreationTime
		}
	}
	return 0
}

// fillRow evaluates every cell of row r into out: the batched slab path
// (fillRowSlab) for the canonical factor program, per-cell evaluation
// through the term program otherwise. rs supplies the slab buffers —
// callers reuse one per goroutine, so the per-row fill allocates nothing.
// Both paths are bit-identical to the generic Factor path.
func (k *kernel) fillRow(r int, pm *cluster.PM, vms []*cluster.VM, out []float64, rs *rowScratch) {
	if k.isDefault {
		k.fillRowSlab(r, pm, vms, out, rs)
		return
	}
	for c, vm := range vms {
		out[c] = k.cell(r, c, pm, vm, vm.Host == pm.ID)
	}
}

// cell evaluates p_ij for (pm at row r, vm at column c). hosted reports
// whether pm currently hosts vm, exactly as in Joint.
func (k *kernel) cell(r, c int, pm *cluster.PM, vm *cluster.VM, hosted bool) float64 {
	ci := k.rowClass[r]
	if k.isDefault {
		return k.cellDefault(ci, c, pm, vm, hosted)
	}
	p := 1.0
	for _, t := range k.terms {
		var q float64
		switch t.op {
		case opRes:
			if !hosted && !pm.CanHost(vm.Demand) {
				return 0
			}
			continue // q = 1, multiplication is the identity
		case opVir:
			if hosted {
				continue
			}
			q = k.vir[ci*k.virStride+c]
		case opRel:
			q = pm.Reliability
		case opEff:
			info := k.infos[ci]
			if hosted {
				q = effProbability(info, pm.Utilization())
			} else {
				q = effProbability(info, prospectiveUtilization(pm, vm.Demand))
			}
		default:
			q = t.f.Probability(k.ctx, vm, pm, hosted)
		}
		p *= q
		if p == 0 {
			return 0
		}
	}
	return p
}

// cellDefault is the straight-line path for the canonical factor order
// (res, vir, rel, eff). The multiplication order matches Joint exactly:
// ((p_res * p_vir) * p_rel) * p_eff, with 1-valued terms elided (IEEE 754
// multiplication by 1.0 is the identity), so results are bit-identical.
func (k *kernel) cellDefault(ci, c int, pm *cluster.PM, vm *cluster.VM, hosted bool) float64 {
	info := k.infos[ci]
	if hosted {
		p := pm.Reliability
		if p == 0 {
			return 0
		}
		return p * effProbability(info, pm.Utilization())
	}
	if !pm.CanHost(vm.Demand) {
		return 0
	}
	p := k.vir[ci*k.virStride+c]
	if p == 0 {
		return 0
	}
	p *= pm.Reliability
	if p == 0 {
		return 0
	}
	return p * effProbability(info, prospectiveUtilization(pm, vm.Demand))
}
