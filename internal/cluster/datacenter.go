package cluster

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/vector"
)

// Datacenter aggregates the physical machines and the global constants the
// placement scheme derives from them: the minimal VM requirement R^MIN and
// the relative power-efficiency parameters eff_j (Section III.B.4).
type Datacenter struct {
	pms []*PM

	// rmin is R^MIN, the minimal resource requirement of any VM the data
	// center accepts; it anchors the utilization-level partition.
	rmin vector.V

	// minPerVMPower caches min_j{power_j}, the smallest per-VM active
	// power across classes, used to normalize eff_j.
	minPerVMPower float64

	// feeds are the change feeds handed out by Subscribe; every PM bump
	// appends to each.
	feeds []*Feed

	// fit is the first-fit index, built by the first FirstFit call; nil
	// until then, and in every clone.
	fit *fitIndex

	// Fleet counters, kept exact by PM.tally on every SetState, Host and
	// Evict: PMs on or booting, PMs booting, placed VMs, and active PMs
	// hosting at least one VM. CheckInvariants re-derives them by scan.
	active, booting, vms, nonIdle int
}

// Config describes a data center to build: a list of (class, count) groups
// and the minimal VM requirement.
type Config struct {
	Groups []Group
	RMin   vector.V
}

// Group is count PMs of a shared class.
type Group struct {
	Class *PMClass
	Count int
}

// New builds a data center from cfg. PMs are numbered sequentially in group
// order. All PMs start powered off; callers (the simulator or tests) power
// on the machines they need.
func New(cfg Config) (*Datacenter, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("cluster: datacenter needs at least one PM group")
	}
	if err := cfg.RMin.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: RMin: %w", err)
	}
	d := &Datacenter{rmin: cfg.RMin.Clone()}
	id := PMID(0)
	dim := cfg.RMin.Dim()
	for gi, g := range cfg.Groups {
		if g.Class == nil {
			return nil, fmt.Errorf("cluster: group %d has nil class", gi)
		}
		if err := g.Class.Validate(); err != nil {
			return nil, err
		}
		if g.Class.Capacity.Dim() != dim {
			return nil, fmt.Errorf("cluster: class %s capacity dim %d != RMin dim %d",
				g.Class.Name, g.Class.Capacity.Dim(), dim)
		}
		if g.Count <= 0 {
			return nil, fmt.Errorf("cluster: group %d (%s) has non-positive count %d", gi, g.Class.Name, g.Count)
		}
		for i := 0; i < g.Count; i++ {
			d.adopt(NewPM(id, g.Class))
			id++
		}
	}
	d.carve()
	d.recomputeMinPower()
	return d, nil
}

// carve gives every PM's hosted list a capped window of one fleet-wide
// slab, with room for its class's W_j minimal VMs, so hosting and evicting
// within W_j allocate nothing. A PM that takes VMs below R^MIN outgrows
// its window and appends into a slice of its own.
func (d *Datacenter) carve() {
	size := 0
	for _, p := range d.pms {
		size += p.Class.MaxMinimalVMs(d.rmin)
	}
	slab := make([]*VM, size)
	for _, p := range d.pms {
		w := p.Class.MaxMinimalVMs(d.rmin)
		p.vms, slab = slab[:0:w], slab[w:]
	}
}

// adopt appends a fresh, off, empty PM to the fleet; it then reports its
// bumps and counter changes to d.
func (d *Datacenter) adopt(p *PM) {
	p.dc = d
	d.pms = append(d.pms, p)
}

// MustNew is New that panics on error; convenient for tests and examples
// with hard-coded valid configurations.
func MustNew(cfg Config) *Datacenter {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Datacenter) recomputeMinPower() {
	d.minPerVMPower = math.Inf(1)
	seen := map[*PMClass]bool{}
	for _, p := range d.pms {
		if seen[p.Class] {
			continue
		}
		seen[p.Class] = true
		if pv := d.perVMPower(p.Class); pv < d.minPerVMPower {
			d.minPerVMPower = pv
		}
	}
}

// perVMPower returns power_j for a class: active power divided by W_j, the
// per-VM power consumption (Section III.B.4).
func (d *Datacenter) perVMPower(c *PMClass) float64 {
	w := c.MaxMinimalVMs(d.rmin)
	if w <= 0 {
		return math.Inf(1) // cannot host even one minimal VM
	}
	return c.ActivePower / float64(w)
}

// Efficiency returns eff_j = min_j{power_j} / power_j for the PM's class:
// 1 for the most power-efficient class, smaller for the rest.
func (d *Datacenter) Efficiency(p *PM) float64 {
	pv := d.perVMPower(p.Class)
	if math.IsInf(pv, 1) {
		return 0
	}
	return d.minPerVMPower / pv
}

// CloneTopology returns a new datacenter with the same PM IDs, classes,
// and derived constants but entirely fresh machine state: every clone PM
// starts powered off, fully reliable, and empty. PMClass values are shared
// (they are immutable by convention), feeds are not: the clone has none
// until it is subscribed to, and no first-fit index until FirstFit is
// called on it. The snapshot auditor restores checkpoints into topology
// clones so a round-trip check never aliases the live fleet.
func (d *Datacenter) CloneTopology() *Datacenter {
	out := &Datacenter{rmin: d.rmin.Clone(), minPerVMPower: d.minPerVMPower}
	out.pms = make([]*PM, 0, len(d.pms))
	for _, p := range d.pms {
		out.adopt(NewPM(p.ID, p.Class))
	}
	out.carve()
	return out
}

// RMin returns the minimal VM requirement vector (a copy).
func (d *Datacenter) RMin() vector.V { return d.rmin.Clone() }

// RMinShared returns the minimal VM requirement vector without copying.
// The returned slice is a read-only view into the datacenter's state; it
// exists for hot paths (the placement factors evaluate it M*N times per
// consolidation) and must not be mutated.
func (d *Datacenter) RMinShared() vector.V { return d.rmin }

// Size returns the total number of PMs.
func (d *Datacenter) Size() int { return len(d.pms) }

// PM returns the PM with the given ID, or nil if out of range.
func (d *Datacenter) PM(id PMID) *PM {
	if id < 0 || int(id) >= len(d.pms) {
		return nil
	}
	return d.pms[id]
}

// PMs returns all PMs in ID order. The returned slice is shared; callers
// must not reorder it.
func (d *Datacenter) PMs() []*PM { return d.pms }

// ActivePMs returns PMs that are on or booting (consuming power and
// available for placement planning) as a fresh slice. Hot paths loop over
// PMs() testing PM.Active instead.
func (d *Datacenter) ActivePMs() []*PM {
	var out []*PM
	for _, p := range d.pms {
		if p.Active() {
			out = append(out, p)
		}
	}
	return out
}

// AppendActivePMs appends the on/booting PMs to dst in ID order and
// returns the extended slice. It is the allocation-free form of ActivePMs
// for hot paths (the per-arrival placement argmax, matrix construction)
// that keep a reusable backing slice across calls.
func (d *Datacenter) AppendActivePMs(dst []*PM) []*PM {
	for _, p := range d.pms {
		if p.Active() {
			dst = append(dst, p)
		}
	}
	return dst
}

// NonIdleCount returns N_nidle, the number of active PMs hosting at least
// one VM.
func (d *Datacenter) NonIdleCount() int { return d.nonIdle }

// ActiveCount returns the number of PMs that are on or booting.
func (d *Datacenter) ActiveCount() int { return d.active }

// BootingCount returns the number of PMs that are booting.
func (d *Datacenter) BootingCount() int { return d.booting }

// IdlePMs returns PMs that are on and hosting nothing, candidates for
// shutdown during consolidation.
func (d *Datacenter) IdlePMs() []*PM {
	var out []*PM
	for _, p := range d.pms {
		if p.Idle() {
			out = append(out, p)
		}
	}
	return out
}

// OffPMs returns PMs that are powered off, candidates for boot. Failed PMs
// are excluded; the failure model owns their recovery.
func (d *Datacenter) OffPMs() []*PM {
	var out []*PM
	for _, p := range d.pms {
		if p.state == PMOff {
			out = append(out, p)
		}
	}
	return out
}

// AppendVMsInState appends every placed VM in state st to dst, sorted by
// ID within the appended span, and returns the extended slice; with a
// reusable backing slice it allocates nothing. It is the cold reference
// for the VM axis of a consolidation pass — core.MigratableVMs, the audit
// checks and the cold engines SelfAudit holds a pass to — not the
// production path: a pass runs on every arrival and departure, and core
// keeps its placed VMs bucketed by host across passes instead of
// re-collecting them.
func (d *Datacenter) AppendVMsInState(dst []*VM, st VMState) []*VM {
	start := len(dst)
	for _, p := range d.pms {
		for _, vm := range p.vms {
			if vm.State == st {
				dst = append(dst, vm)
			}
		}
	}
	// slices.SortFunc rather than sort.Slice: the generic sort keeps this
	// path allocation-free, which is the method's reason to exist.
	slices.SortFunc(dst[start:], func(a, b *VM) int { return int(a.ID) - int(b.ID) })
	return dst
}

// CountVMs returns how many placed VMs satisfy pred, walking the PMs in ID
// order and each PM's VMs in ID order, without allocating.
func (d *Datacenter) CountVMs(pred func(*VM) bool) int {
	n := 0
	for _, p := range d.pms {
		for _, vm := range p.vms {
			if pred(vm) {
				n++
			}
		}
	}
	return n
}

// VMCount returns the total number of placed VMs.
func (d *Datacenter) VMCount() int { return d.vms }

// AverageVMsPerPM returns N_Ave(t): running VMs divided by non-idle PMs
// (Section IV). It returns fallback when no PM is non-idle so the spare
// controller has a sane divisor at cold start.
func (d *Datacenter) AverageVMsPerPM(fallback float64) float64 {
	nonIdle := d.NonIdleCount()
	if nonIdle == 0 {
		return fallback
	}
	return float64(d.VMCount()) / float64(nonIdle)
}

// WalkPlacements visits every (PM, hosted VM) pair in deterministic order
// (PMs by ID, VMs by ID within a PM) and stops at the first error. The
// audit subsystem and exporters use it to traverse the full mapping
// without materializing intermediate slices per call site. fn must not
// host or evict.
func (d *Datacenter) WalkPlacements(fn func(*PM, *VM) error) error {
	for _, p := range d.pms {
		for _, vm := range p.vms {
			if err := fn(p, vm); err != nil {
				return err
			}
		}
	}
	return nil
}

// VMsByState counts the placed VMs per lifecycle state. Only VMs currently
// occupying a PM appear; queued and finished VMs are not reachable from the
// datacenter.
func (d *Datacenter) VMsByState() map[VMState]int {
	m := make(map[VMState]int)
	for _, p := range d.pms {
		for _, vm := range p.vms {
			m[vm.State]++
		}
	}
	return m
}

// CheckInvariants validates global consistency: every PM's hosted list is
// in strictly ascending ID order, its usage equals the sum of its VM
// demands and stays within capacity, no VM appears on two PMs, the
// fleet counters equal a re-count, and a built first-fit index agrees with
// the fleet (fitIndex.check). Tests and the simulator's self-check mode
// call this.
func (d *Datacenter) CheckInvariants() error {
	seen := make(map[VMID]PMID)
	var active, booting, vms, nonIdle int
	for _, p := range d.pms {
		vms += len(p.vms)
		if p.state == PMBooting {
			booting++
		}
		if p.Active() {
			active++
			if len(p.vms) > 0 {
				nonIdle++
			}
		}
		sum := p.reserved.Clone()
		if !sum.NonNegative() {
			return fmt.Errorf("cluster: PM %d has negative reservations %v", p.ID, p.reserved)
		}
		for i, vm := range p.vms {
			switch {
			case i == 0:
			case p.vms[i-1].ID == vm.ID:
				return fmt.Errorf("cluster: PM %d lists VM %d twice", p.ID, vm.ID)
			case p.vms[i-1].ID > vm.ID:
				return fmt.Errorf("cluster: PM %d lists VM %d after VM %d, out of ID order", p.ID, vm.ID, p.vms[i-1].ID)
			}
			if prev, dup := seen[vm.ID]; dup {
				return fmt.Errorf("cluster: VM %d on both PM %d and PM %d", vm.ID, prev, p.ID)
			}
			seen[vm.ID] = p.ID
			if vm.Host != p.ID {
				return fmt.Errorf("cluster: VM %d hosted by PM %d but Host=%d", vm.ID, p.ID, vm.Host)
			}
			sum.AddInPlace(vm.Demand)
		}
		for k := range sum {
			if diff := sum[k] - p.Used[k]; diff > 1e-6 || diff < -1e-6 {
				return fmt.Errorf("cluster: PM %d used %v != demands+reservations %v", p.ID, p.Used, sum)
			}
		}
		if !p.Used.LE(p.Class.Capacity) {
			return fmt.Errorf("cluster: PM %d used %v exceeds capacity %v", p.ID, p.Used, p.Class.Capacity)
		}
		if p.VMCount() > 0 && !p.Active() {
			return fmt.Errorf("cluster: PM %d hosts %d VMs while %s", p.ID, p.VMCount(), p.state)
		}
	}
	for _, c := range []struct {
		name      string
		kept, got int
	}{
		{"active PMs", d.active, active},
		{"booting PMs", d.booting, booting},
		{"placed VMs", d.vms, vms},
		{"non-idle PMs", d.nonIdle, nonIdle},
	} {
		if c.kept != c.got {
			return fmt.Errorf("cluster: %s counter %d != %d by scan", c.name, c.kept, c.got)
		}
	}
	if d.fit != nil {
		return d.fit.check(d)
	}
	return nil
}
