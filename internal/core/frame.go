package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// frame is everything one consolidation pass prepares before either
// Algorithm-1 engine looks at a probability: the two ID-sorted axes, the
// PM-ID-to-row table, each row's class and each column's demand shape as
// ids into the Context's interning tables, the p_vir memo, the hosted-cell
// probability of every row, the column trackers, and the migration itself.
// Matrix and SparseMatrix embed it and add only how they find a column's
// best row — stored probability rows there, score-group scans here.
//
// A frame is built from the Context's pooled scratch under a checkout
// model (scratch.go) and is valid until Release.
type frame struct {
	ctx     *Context
	factors []Factor
	opts    MatrixOptions

	pms []*cluster.PM // rows: active PMs, ID ascending
	vms []*cluster.VM // columns, ID ascending

	// id2row maps a PM ID to its row, -1 for inactive PMs. PM IDs are
	// dense (cluster.New numbers the fleet 0..M-1), so this is a slice.
	id2row []int32

	rowClass []int32 // per row: id into ctx.classTab
	colShape []int32 // per column: id into ctx.shapeTab
	shapes   []int32 // the distinct colShape values

	// vir memoizes the non-host virtualization penalty per class and
	// column: the remaining estimate T_re is fixed for the lifetime of a
	// frame (the clock does not advance during a pass), so the M*N
	// evaluations of Eq. 3 collapse to C*N. Stored class-major:
	// vir[ci*Cols()+c].
	vir []float64

	// hostP lazily memoizes the canonical program's hosted-cell
	// probability per row (NaN = unset); move invalidates both endpoints.
	hostP []float64

	// colTrackers holds, per column, the current placement's normalizer
	// and the best normalized alternative.
	colTrackers

	// scr is the checked-out backing storage behind every slice above
	// and the engines' own; Release returns it to the Context.
	scr *frameScratch
}

// shapeInfo is one entry of the Context's demand-shape table.
type shapeInfo struct {
	demand vector.V
	pass   uint64 // the frame build that last listed the shape
}

// shapeID interns a demand vector in the Context's shape table, keyed on
// the exact bit patterns so per-shape memos are bit-identical to a
// per-cell evaluation, and returns its id. Real workloads request a
// handful of standard shapes (the Table II workload has 8), so per-row
// feasibility and efficiency collapse from N columns to D shapes.
func (ctx *Context) shapeID(demand vector.V) int32 {
	key := ctx.shapeKey[:0]
	for _, x := range demand {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
	}
	ctx.shapeKey = key
	if id, ok := ctx.shapeIdx[string(key)]; ok {
		return id
	}
	if ctx.shapeIdx == nil {
		ctx.shapeIdx = make(map[string]int32, 16)
	}
	id := int32(len(ctx.shapeTab))
	ctx.shapeIdx[string(key)] = id
	ctx.shapeTab = append(ctx.shapeTab, shapeInfo{demand: demand.Clone()})
	return id
}

// init builds the frame over the data center's active PMs and the given
// VMs. Every VM must currently be hosted on an active PM and appear once.
// With shapes — each VM's interned shape id, from the Context's roster —
// vms must ascend by ID and both slices are used as given, valid as long
// as the frame; without, the caller is a constructor with a list in any
// order, which is copied, sorted and interned here.
func (f *frame) init(ctx *Context, factors []Factor, vms []*cluster.VM, shapes []int32, opts MatrixOptions) error {
	if ctx == nil || ctx.DC == nil {
		return fmt.Errorf("core: matrix needs a context with a datacenter")
	}
	scr := ctx.takeScratch()
	*f = frame{ctx: ctx, factors: factors, opts: opts, scr: scr}

	// The datacenter lists PMs by ID, so the rows ascend as collected.
	f.id2row = grow(&scr.id2row, ctx.DC.Size())
	for i := range f.id2row {
		f.id2row[i] = -1
	}
	f.pms = ctx.DC.AppendActivePMs(scr.pms[:0])
	scr.pms = f.pms
	f.rowClass = grow(&scr.rowClass, len(f.pms))
	for r, pm := range f.pms {
		f.id2row[pm.ID] = int32(r)
		f.rowClass[r] = ctx.classID(pm)
	}

	nr, nc := len(f.pms), len(vms)
	if shapes != nil {
		f.vms, f.colShape = vms, shapes
	} else {
		f.vms = append(scr.vms[:0], vms...)
		scr.vms = f.vms
		slices.SortFunc(f.vms, func(a, b *cluster.VM) int { return int(a.ID) - int(b.ID) })
		f.colShape = grow(&scr.colShape, nc)
		for c, vm := range f.vms {
			f.colShape[c] = ctx.shapeID(vm.Demand)
		}
	}
	f.shapes = scr.shapes[:0]
	ctx.pass++
	for c := nc - 1; c >= 0; c-- {
		vm := f.vms[c]
		if c > 0 && f.vms[c-1].ID >= vm.ID {
			f.Release()
			return fmt.Errorf("core: VM %d duplicated or out of ID order in matrix", vm.ID)
		}
		if _, ok := f.RowOf(vm.Host); !ok {
			f.Release()
			return fmt.Errorf("core: VM %d hosted on inactive PM %d", vm.ID, vm.Host)
		}
		id := f.colShape[c]
		if sh := &ctx.shapeTab[id]; sh.pass != ctx.pass {
			sh.pass = ctx.pass
			f.shapes = append(f.shapes, id)
		}
	}
	scr.shapes = f.shapes

	f.vir = grow(&scr.vir, len(ctx.classTab)*nc)
	for c, vm := range f.vms {
		tre := vm.RemainingEstimate(ctx.Now)
		for ci, info := range ctx.classTab {
			f.vir[ci*nc+c] = virProbability(tre, info.overhead)
		}
	}

	f.hostP = grow(&scr.hostP, nr)
	for r := range f.hostP {
		f.hostP[r] = math.NaN()
	}
	scr.trk.resize(nc)
	f.colTrackers = scr.trk
	return nil
}

// Release returns the engine's backing storage to its Context for the next
// build to reuse. The engine must not be used afterwards. Release is
// optional — an un-released engine just leaves its storage to the GC, and
// when several engines over one Context are alive at once (the audit's
// differential rebuilds) only the first Release re-attaches.
func (f *frame) Release() {
	scr := f.scr
	f.scr = nil
	if scr != nil && f.ctx.fscratch == nil {
		f.ctx.fscratch = scr
	}
}

// Rows and Cols report the dimensions.
func (f *frame) Rows() int { return len(f.pms) }

// Cols reports the number of VM columns.
func (f *frame) Cols() int { return len(f.vms) }

// PM returns the physical machine at row r.
func (f *frame) PM(r int) *cluster.PM { return f.pms[r] }

// VM returns the virtual machine at column c.
func (f *frame) VM(c int) *cluster.VM { return f.vms[c] }

// RowOf returns the row index of the PM with the given ID.
func (f *frame) RowOf(id cluster.PMID) (int, bool) {
	if id < 0 || int(id) >= len(f.id2row) || f.id2row[id] < 0 {
		return -1, false
	}
	return int(f.id2row[id]), true
}

// hostRow returns the row currently hosting column c's VM.
func (f *frame) hostRow(c int) int {
	vm := f.vms[c]
	r, ok := f.RowOf(vm.Host)
	if !ok {
		panic(fmt.Sprintf("core: VM %d host %d left the matrix", vm.ID, vm.Host))
	}
	return r
}

// hostProb returns the hosted-cell probability of row r's PM
// (Context.hostedProb), memoized per row.
func (f *frame) hostProb(r int) float64 {
	if math.IsNaN(f.hostP[r]) {
		f.hostP[r] = f.ctx.hostedProb(f.pms[r])
	}
	return f.hostP[r]
}

// move migrates column c's VM to row r (migrate) and invalidates both
// endpoints' hosted-cell memo. The datacenter state is mutated; the column
// trackers are not (the engines repair them). It returns the source row.
func (f *frame) move(r, c int) (from int, err error) {
	from = f.curRow[c]
	if err := migrate(f.vms[c], f.pms[from], f.pms[r]); err != nil {
		return from, err
	}
	f.hostP[from], f.hostP[r] = math.NaN(), math.NaN()
	return from, nil
}

// diffAxes compares two frames' dimensions and row/column identities.
func (f *frame) diffAxes(o *frame) error {
	if len(f.pms) != len(o.pms) || len(f.vms) != len(o.vms) {
		return fmt.Errorf("core: matrix %dx%d != %dx%d", len(f.pms), len(f.vms), len(o.pms), len(o.vms))
	}
	for r := range f.pms {
		if f.pms[r].ID != o.pms[r].ID {
			return fmt.Errorf("core: row %d is PM %d vs PM %d", r, f.pms[r].ID, o.pms[r].ID)
		}
	}
	for c := range f.vms {
		if f.vms[c].ID != o.vms[c].ID {
			return fmt.Errorf("core: column %d is VM %d vs VM %d", c, f.vms[c].ID, o.vms[c].ID)
		}
	}
	return nil
}

// diffTrackers is the engine-independent comparison: axes, column
// trackers, and the Best extraction must all be bit-identical.
func (f *frame) diffTrackers(o *frame) error {
	if err := f.diffAxes(o); err != nil {
		return err
	}
	return f.colTrackers.diff(&o.colTrackers)
}
