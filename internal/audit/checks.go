package audit

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/oracle"
	"repro/internal/power"
	"repro/internal/spare"
)

// StateCheck verifies the datacenter's placement bookkeeping: PM usage
// equals the sum of hosted demands plus reservations, no VM is on two PMs,
// usage stays within capacity (Eq. 2), and every hosted VM is in a
// resource-occupying lifecycle state consistent with its Host field.
func StateCheck(dc *cluster.Datacenter) Check {
	return Check{
		Name:     "state",
		PerEvent: true,
		Fn: func(now float64) error {
			if err := dc.CheckInvariants(); err != nil {
				return err
			}
			return dc.WalkPlacements(func(pm *cluster.PM, vm *cluster.VM) error {
				if !vm.Placed() {
					return fmt.Errorf("PM %d hosts VM %d in non-placed state %s", pm.ID, vm.ID, vm.State)
				}
				if vm.Host != pm.ID {
					return fmt.Errorf("PM %d hosts VM %d whose Host field says %d", pm.ID, vm.ID, vm.Host)
				}
				return nil
			})
		},
	}
}

// energyTol is the relative tolerance for energy-ledger comparisons. The
// meter integrates piecewise-constant power in event order while the bin
// series re-splits intervals at bin boundaries, so the sums differ by
// floating-point associativity only.
const energyTol = 1e-6

func relClose(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= energyTol*math.Max(scale, 1)
}

// EnergyCheck verifies the power meter's ledger: total energy is finite and
// non-negative, and re-derivable both as the sum of per-PM energies and as
// the sum of the time-binned series. It also holds every metered draw the
// change feed does not name as pending to power.Draw bit for bit
// (power.Meter.VerifyDraws), so a write to PM.Used or a bump that skips
// the feed fails here, naming the PM.
func EnergyCheck(m *power.Meter, dc *cluster.Datacenter) Check {
	return Check{
		Name:     "energy",
		PerEvent: true,
		Fn: func(now float64) error {
			if err := m.VerifyDraws(); err != nil {
				return err
			}
			total := m.TotalEnergy()
			if math.IsNaN(total) || math.IsInf(total, 0) || total < 0 {
				return fmt.Errorf("total energy %g is not a finite non-negative number", total)
			}
			perPM := 0.0
			for _, pm := range dc.PMs() {
				e := m.PMEnergy(pm.ID)
				if math.IsNaN(e) || e < 0 {
					return fmt.Errorf("PM %d energy %g is negative or NaN", pm.ID, e)
				}
				perPM += e
			}
			if !relClose(total, perPM) {
				return fmt.Errorf("total energy %g != sum of per-PM energies %g", total, perPM)
			}
			binned := 0.0
			for i, b := range m.Bins() {
				if math.IsNaN(b) || b < 0 {
					return fmt.Errorf("bin %d energy %g is negative or NaN", i, b)
				}
				binned += b
			}
			if !relClose(total, binned) {
				return fmt.Errorf("total energy %g != sum of bin energies %g", total, binned)
			}
			return nil
		},
	}
}

// ConservationCheck verifies the VM population ledger: every request that
// arrived is currently placed, queued, finished, or rejected — no VM is
// ever lost or double-counted. counts supplies the simulator's own
// tallies; the placed count is re-derived from datacenter state.
func ConservationCheck(dc *cluster.Datacenter, counts func() (arrived, queued, finished, rejected int)) Check {
	return Check{
		Name:     "conservation",
		PerEvent: true,
		Fn: func(now float64) error {
			arrived, queued, finished, rejected := counts()
			placed := dc.VMCount()
			if got := placed + queued + finished + rejected; got != arrived {
				return fmt.Errorf("arrived %d != placed %d + queued %d + finished %d + rejected %d (= %d)",
					arrived, placed, queued, finished, rejected, got)
			}
			if byState := dc.VMsByState(); byState[cluster.VMQueued] != 0 || byState[cluster.VMFinished] != 0 {
				return fmt.Errorf("datacenter hosts VMs in queued/finished states: %v", byState)
			}
			return nil
		},
	}
}

// SpareCheck verifies the spare-server controller's latest plan stays
// within configured bounds: spare count within [0, fleet size] and the
// MaxSpares cap, component estimates non-negative and finite. last returns
// the most recent plan, or nil before the first control period.
func SpareCheck(cfg spare.Config, dc *cluster.Datacenter, last func() *spare.Plan) Check {
	return Check{
		Name:     "spare",
		PerEvent: true,
		Fn: func(now float64) error {
			p := last()
			if p == nil {
				return nil
			}
			if p.Spares < 0 || p.Spares > dc.Size() {
				return fmt.Errorf("plan at t=%g wants %d spares, outside [0, %d]", p.At, p.Spares, dc.Size())
			}
			if cfg.MaxSpares > 0 && p.Spares > cfg.MaxSpares {
				return fmt.Errorf("plan at t=%g wants %d spares, above cap %d", p.At, p.Spares, cfg.MaxSpares)
			}
			if p.NArrival < 0 || p.NDeparture < 0 {
				return fmt.Errorf("plan at t=%g has negative components n_arrival=%d n_departure=%d",
					p.At, p.NArrival, p.NDeparture)
			}
			if math.IsNaN(p.ExpectedArrivals) || math.IsInf(p.ExpectedArrivals, 0) || p.ExpectedArrivals < 0 {
				return fmt.Errorf("plan at t=%g has invalid expected arrivals %g", p.At, p.ExpectedArrivals)
			}
			if math.IsNaN(p.NAve) || p.NAve < 0 {
				return fmt.Errorf("plan at t=%g has invalid N_Ave %g", p.At, p.NAve)
			}
			return nil
		},
	}
}

// QueueCheck verifies the event engine's heap by delegating to its
// full-structure walk (sim.Engine.VerifyQueue): every slot's record
// indexed at its slot and carrying its seq, no slot ordered before its
// parent, and nothing queued before the clock. verify is the engine's
// walk so the audit package does not import the simulation it is
// auditing.
func QueueCheck(verify func() error) Check {
	return Check{
		Name:     "queue",
		PerEvent: true,
		Fn: func(now float64) error {
			return verify()
		},
	}
}

// DrainCheck holds the queue to the VMs it lists and the drain's skip to a
// cold scan. Every queued VM must be in the queued state and hosted
// nowhere. The simulator's drain asks the placer only about a queued VM
// that some PM named in feed, the queue's change feed, can host; that is
// exact only while every active PM a queued VM fits is pending in feed.
// queue returns the queued VMs. A queue entry for a placed VM, a write
// that skipped the feed, or a drain that lost an entry, fails here by
// name: the VM, and the PM the next drain would wrongly pass over.
func DrainCheck(dc *cluster.Datacenter, feed *cluster.Feed, queue func() []*cluster.VM) Check {
	return Check{
		Name:     "drain",
		PerEvent: true,
		Fn: func(now float64) error {
			for _, vm := range queue() {
				if vm.State != cluster.VMQueued || vm.Host != cluster.NoPM {
					return fmt.Errorf("queued VM %d is %s on PM %d", vm.ID, vm.State, vm.Host)
				}
				for _, pm := range dc.PMs() {
					if pm.CanHost(vm.Demand) && !feed.Pending(pm.ID) {
						return fmt.Errorf("queued VM %d fits PM %d, which the queue's change feed does not name: the next drain would not ask the placer about it",
							vm.ID, pm.ID)
					}
				}
			}
			return nil
		},
	}
}

// TrackerCheck is the differential oracle: it rebuilds the probability
// matrix two ways over the currently migratable VMs — core's cold Matrix on
// the compiled program, the reference the lazy rounds are held to, and the
// frozen naive oracle, which evaluates core.Joint per cell — and requires
// them bit-identical in every cell, tracker, and Best decision. O(M*N)
// factor evaluations per run, so it is a per-period check even in event
// mode.
//
// The oracle build gets a fresh Context: the per-class constants it
// re-derives depend only on the fleet's classes, so a fresh Context
// computes bit-identical cells without sharing the live one's memos.
func TrackerCheck(ctx *core.Context, factors []core.Factor) Check {
	return Check{
		Name:     "tracker",
		PerEvent: false,
		Fn: func(now float64) error {
			ctx := ctx.At(now)
			vms := core.MigratableVMs(ctx.DC)
			if len(vms) == 0 {
				return nil
			}
			kernel, err := core.NewMatrix(ctx, factors, vms)
			if err != nil {
				return fmt.Errorf("kernel matrix build: %w", err)
			}
			defer kernel.Release()
			ref, err := oracle.NewMatrix(core.NewContext(ctx.DC).At(now), factors, vms)
			if err != nil {
				return fmt.Errorf("oracle matrix build: %w", err)
			}
			if err := diffOracle(kernel, ref); err != nil {
				return fmt.Errorf("kernel vs frozen oracle: %w", err)
			}
			return nil
		},
	}
}

// SparseCheck is the lazy-rounds-vs-dense differential oracle for every
// dynamic run, whose factor list the candidate index evaluates
// (core.CheckFactors). It builds a dense matrix over the currently
// migratable VMs and runs the first round of a consolidation pass's lazy greedy
// (core/bound.go), at the run's current MIG_threshold, on the live Context
// against it (core's CheckProof): the candidate index structurally sound,
// every column's score-group scan the dense best alternative bit-for-bit,
// no gain bound below a built gain, no column left out of the sweep that
// could move, the choice the dense Best. It also replays the arrival
// ranking for a sample of hosted VMs: the candidate shortlist must equal the
// cell-by-cell ranking. O(M*N) dense evaluations per run, so it is a
// per-period check even in event mode; the per-round SelfAudit covers the
// event granularity.
func SparseCheck(ctx *core.Context, factors []core.Factor, threshold func() float64) Check {
	return Check{
		Name:     "sparse",
		PerEvent: false,
		Fn: func(now float64) error {
			ctx := ctx.At(now)
			// Detach the observer for the duration of the check: the
			// check's own sweep and shortlist replays would otherwise
			// increment the run's "core.sparse_shape_overflow" counter (and
			// any other kernel tallies) — the audit polluting the very
			// metrics it validates, the same shared-sink hazard the sweep's
			// per-(scheme, seed) observers close. ctx is the run's live
			// context, so restore on every exit path.
			savedObs := ctx.Obs
			ctx.Obs = nil
			defer func() { ctx.Obs = savedObs }()
			vms := core.MigratableVMs(ctx.DC)
			if len(vms) == 0 {
				return nil
			}
			// The dense reference only needs the fleet: a fresh Context
			// keeps it independent of the live one's memos and interning
			// tables, while the lazy round runs on the live Context (it
			// exercises the run's own candidate index and roster).
			dense, err := core.NewMatrix(core.NewContext(ctx.DC).At(now), factors, vms)
			if err != nil {
				return fmt.Errorf("dense matrix build: %w", err)
			}
			defer dense.Release()
			if err := ctx.CheckProof(dense, threshold()); err != nil {
				return fmt.Errorf("lazy rounds vs cold dense build: %w", err)
			}
			stride := len(vms)/8 + 1
			for i := 0; i < len(vms); i += stride {
				if err := diffShortlist(ctx, factors, vms[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// RosterCheck holds the roster a run's consolidation passes read — the
// placed VMs bucketed by host and shape — to a cold rebuild
// (core.Context.CheckColumns). Per period only, although it is cheap: it
// syncs the roster, and run after every event it would leave the passes in
// between — which SelfAudit checks one by one in event mode — nothing
// accumulated to re-read.
func RosterCheck(ctx *core.Context) Check {
	return Check{Name: "roster", Fn: func(float64) error { return ctx.CheckColumns() }}
}

// diffShortlist compares the candidate index's full arrival shortlist for
// vm against the cell-by-cell ranking, entry by entry.
func diffShortlist(ctx *core.Context, factors []core.Factor, vm *cluster.VM) error {
	sparse := core.ArrivalShortlist(ctx, factors, vm, 0)
	dense := core.RankPlacements(ctx, factors, vm)
	if len(sparse) != len(dense) {
		return fmt.Errorf("VM %d: sparse shortlist has %d entries, dense ranking %d", vm.ID, len(sparse), len(dense))
	}
	for i := range sparse {
		if sparse[i].PM != dense[i].PM || sparse[i].Probability != dense[i].Probability {
			return fmt.Errorf("VM %d shortlist entry %d: sparse (PM %d, %v) != dense (PM %d, %v)",
				vm.ID, i, sparse[i].PM.ID, sparse[i].Probability, dense[i].PM.ID, dense[i].Probability)
		}
	}
	return nil
}

func eqf(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// diffOracle compares a core matrix against the oracle reference through
// their public surfaces: dimensions, axis identities, every probability
// bitwise, column normalizers, tracked best alternatives, and the global
// Best decision.
func diffOracle(m *core.Matrix, o *oracle.Matrix) error {
	if m.Rows() != o.Rows() || m.Cols() != o.Cols() {
		return fmt.Errorf("dimensions %dx%d != oracle %dx%d", m.Rows(), m.Cols(), o.Rows(), o.Cols())
	}
	for r := 0; r < m.Rows(); r++ {
		if m.PM(r).ID != o.PM(r).ID {
			return fmt.Errorf("row %d is PM %d, oracle has PM %d", r, m.PM(r).ID, o.PM(r).ID)
		}
	}
	for c := 0; c < m.Cols(); c++ {
		if m.VM(c).ID != o.VM(c).ID {
			return fmt.Errorf("column %d is VM %d, oracle has VM %d", c, m.VM(c).ID, o.VM(c).ID)
		}
		for r := 0; r < m.Rows(); r++ {
			if !eqf(m.P(r, c), o.P(r, c)) {
				return fmt.Errorf("p[%d][%d] = %v != oracle %v (VM %d on PM %d)",
					r, c, m.P(r, c), o.P(r, c), m.VM(c).ID, m.PM(r).ID)
			}
		}
		if !eqf(m.CurProb(c), o.CurProb(c)) {
			return fmt.Errorf("column %d curProb %v != oracle %v", c, m.CurProb(c), o.CurProb(c))
		}
		mr, mg := m.BestAlt(c)
		or, og := o.BestAlt(c)
		if mr != or || !eqf(mg, og) {
			return fmt.Errorf("column %d best alternative (row %d, gain %v) != oracle (row %d, gain %v)",
				c, mr, mg, or, og)
		}
	}
	mr, mc, mg, mok := m.Best()
	or, oc, og, ook := o.Best()
	if mok != ook || (mok && (mr != or || mc != oc || !eqf(mg, og))) {
		return fmt.Errorf("Best() = (%d, %d, %v, %v) != oracle (%d, %d, %v, %v)",
			mr, mc, mg, mok, or, oc, og, ook)
	}
	return nil
}
