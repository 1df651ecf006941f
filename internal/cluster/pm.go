package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/vector"
)

// PMID identifies a physical machine.
type PMID int

// NoPM is the "no host" sentinel.
const NoPM PMID = -1

// PMState is the lifecycle state of a physical machine.
type PMState int

// PM lifecycle states. Transitions:
//
//	Off -> Booting -> On -> ShuttingDown -> Off
//	On -> Failed -> Off (repair not modelled; a failed PM is re-bootable)
const (
	PMOff PMState = iota
	PMBooting
	PMOn
	PMShuttingDown
	PMFailed
)

// String implements fmt.Stringer.
func (s PMState) String() string {
	switch s {
	case PMOff:
		return "off"
	case PMBooting:
		return "booting"
	case PMOn:
		return "on"
	case PMShuttingDown:
		return "shutting-down"
	case PMFailed:
		return "failed"
	default:
		return fmt.Sprintf("PMState(%d)", int(s))
	}
}

// PMClass describes a homogeneous family of physical machines: capacity,
// virtualization overheads, power constants, and reliability. The paper's
// Table II defines two classes, Fast and Slow (see TableIIFleet).
type PMClass struct {
	// Name labels the class in reports ("fast", "slow").
	Name string

	// Capacity is the K-dimensional maximum resource vector C_j^max.
	Capacity vector.V

	// CreationTime is T^cre, the seconds needed to create a VM on a PM
	// of this class.
	CreationTime float64

	// MigrationTime is T^mig, the seconds a live migration onto a PM of
	// this class takes.
	MigrationTime float64

	// OnOffOverhead is the seconds needed to power the PM on or off.
	OnOffOverhead float64

	// ActivePower and IdlePower are the PM's power draw in watts when
	// fully utilized and when idle-but-on, respectively. Power at
	// intermediate utilization is interpolated linearly (see
	// internal/power).
	ActivePower float64
	IdlePower   float64

	// Reliability is p_j^rel, the probability used by the reliability
	// factor: higher is more reliable. Must be in (0, 1].
	Reliability float64
}

// Validate checks the class for internal consistency.
func (c *PMClass) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("cluster: PM class has no name")
	}
	if err := c.Capacity.Validate(); err != nil {
		return fmt.Errorf("cluster: class %s capacity: %w", c.Name, err)
	}
	if c.Capacity.IsZero() {
		return fmt.Errorf("cluster: class %s has zero capacity", c.Name)
	}
	if c.CreationTime < 0 || c.MigrationTime < 0 || c.OnOffOverhead < 0 {
		return fmt.Errorf("cluster: class %s has negative overhead", c.Name)
	}
	if c.ActivePower < c.IdlePower || c.IdlePower < 0 {
		return fmt.Errorf("cluster: class %s power constants inconsistent (active=%g idle=%g)",
			c.Name, c.ActivePower, c.IdlePower)
	}
	if !(c.Reliability > 0 && c.Reliability <= 1) {
		return fmt.Errorf("cluster: class %s reliability %g not in (0,1]", c.Name, c.Reliability)
	}
	return nil
}

// MaxMinimalVMs returns W_j for a PM of this class: the maximum number of
// VMs with the minimal resource requirement rmin that fit in the class
// capacity (Section III.B.4). It returns at least 1 so a PM that can host
// any VM at all has a non-degenerate level partition, and 0 if even a
// single minimal VM does not fit.
func (c *PMClass) MaxMinimalVMs(rmin vector.V) int {
	if rmin.IsZero() {
		return 1
	}
	w := int(math.Floor(vector.DivMin(c.Capacity, rmin) + vector.Epsilon))
	if w < 0 {
		return 0
	}
	return w
}

// PM is one physical machine. It keeps the VMs placed on it in a slice in
// ascending ID order (VMs, EachVM).
type PM struct {
	ID    PMID
	Class *PMClass

	// Used is the K-dimensional current resource occupation C_j.
	Used vector.V

	// state is the power state (State, SetState).
	state PMState

	// rel is this PM's p_j^rel (Reliability, SetReliability), initialized
	// from the class and adjustable per machine (the failure model decays
	// it with age and past failures).
	rel float64

	// vms holds the VMs currently placed on this PM (creating, running,
	// or migrating in) in ascending ID order. A PM of a datacenter built
	// by New starts on a capped window of the fleet's one slab, with room
	// for its class's W_j minimal VMs; one that takes more (VMs below
	// R^MIN) grows a slice of its own on the append that overflows.
	vms []*VM

	// reserved is the portion of Used held by non-VM reservations (the
	// timed-migration model's source-side double occupancy).
	reserved vector.V

	// dc is the datacenter whose counters and feeds this PM reports to;
	// nil for a free-standing NewPM. The contract: every write to Used,
	// state or reliability goes through bump (Host, Evict, Reserve,
	// Release, SetState, SetReliability), which names the PM in each of
	// dc's change feeds. Caches keyed on a PM — the first-fit index, the
	// candidate index and the roster in internal/core, the energy meter in
	// internal/power — re-read only the PMs their feed names. So Used must
	// never change without a bump.
	dc *Datacenter

	// Failures counts how many times this PM has failed.
	Failures int
}

// NewPM returns a powered-off PM of the given class.
func NewPM(id PMID, class *PMClass) *PM {
	if class == nil {
		panic("cluster: NewPM requires a class")
	}
	return &PM{
		ID:       id,
		Class:    class,
		Used:     vector.Zero(class.Capacity.Dim()),
		state:    PMOff,
		rel:      class.Reliability,
		reserved: vector.Zero(class.Capacity.Dim()),
	}
}

// State returns the PM's power state.
func (p *PM) State() PMState { return p.state }

// SetState moves the PM to power state s, bumping it if the state changes.
func (p *PM) SetState(s PMState) {
	if s == p.state {
		return
	}
	p.tally(-1)
	p.state = s
	p.tally(1)
	p.bump()
}

// bump names the PM in each of its datacenter's change feeds.
func (p *PM) bump() {
	if p.dc != nil {
		for _, f := range p.dc.feeds {
			f.Add(p.ID)
		}
	}
}

// tally adds (sign 1) or removes (sign -1) the PM's share of its
// datacenter's fleet counters; the mutators that change what the counters
// read call it on each side of the write.
func (p *PM) tally(sign int) {
	d := p.dc
	if d == nil {
		return
	}
	d.vms += sign * len(p.vms)
	if p.state == PMBooting {
		d.booting += sign
	}
	if p.Active() {
		d.active += sign
		if len(p.vms) > 0 {
			d.nonIdle += sign
		}
	}
}

// Reliability returns the PM's p_j^rel.
func (p *PM) Reliability() float64 { return p.rel }

// SetReliability sets the PM's p_j^rel, bumping the PM if its bits change.
func (p *PM) SetReliability(r float64) {
	if math.Float64bits(r) != math.Float64bits(p.rel) {
		p.rel = r
		p.bump()
	}
}

// Active reports whether the PM is on or booting: consuming power and
// available for placement planning.
func (p *PM) Active() bool { return p.state == PMOn || p.state == PMBooting }

// CanHost reports whether demand fits in the PM's remaining capacity. It is
// the p_res feasibility predicate (Eq. 2) restricted to this PM. Only an
// active PM (booting counts, since boot completes before any placement
// takes effect) can host.
func (p *PM) CanHost(demand vector.V) bool {
	return p.Active() && demand.Fits(p.Used, p.Class.Capacity)
}

// Host places vm on the PM, reserving its resources. The VM's Host field is
// updated; its lifecycle state is managed by the caller (the simulator
// distinguishes creation from migration). Host returns an error when the VM
// does not fit or is already placed elsewhere.
func (p *PM) Host(vm *VM) error {
	i, dup := p.find(vm.ID)
	if dup {
		return fmt.Errorf("cluster: VM %d already on PM %d", vm.ID, p.ID)
	}
	if vm.Host != NoPM {
		return fmt.Errorf("cluster: VM %d already hosted on PM %d", vm.ID, vm.Host)
	}
	if !p.CanHost(vm.Demand) {
		return fmt.Errorf("cluster: VM %d (demand %v) does not fit on PM %d (used %v / cap %v, state %s)",
			vm.ID, vm.Demand, p.ID, p.Used, p.Class.Capacity, p.state)
	}
	p.tally(-1)
	p.Used.AddInPlace(vm.Demand)
	p.vms = slices.Insert(p.vms, i, vm)
	vm.Host = p.ID
	p.tally(1)
	p.bump()
	return nil
}

// Evict removes vm from the PM, releasing its resources. It returns an
// error, and changes nothing, if vm itself is not hosted here — also when
// another VM with vm's ID is.
func (p *PM) Evict(vm *VM) error {
	i, ok := p.find(vm.ID)
	if !ok {
		return fmt.Errorf("cluster: VM %d not on PM %d", vm.ID, p.ID)
	}
	if on := p.vms[i]; on != vm {
		return fmt.Errorf("cluster: VM %d (host %d, demand %v) to evict is not the VM %d on PM %d (host %d, demand %v)",
			vm.ID, vm.Host, vm.Demand, on.ID, p.ID, on.Host, on.Demand)
	}
	p.Used.SubInPlace(vm.Demand)
	// Guard against negative drift from float arithmetic.
	for i, x := range p.Used {
		if x < 0 {
			if x < -1e-6 {
				panic(fmt.Sprintf("cluster: PM %d used went negative (%v) evicting VM %d", p.ID, p.Used, vm.ID))
			}
			p.Used[i] = 0
		}
	}
	p.tally(-1)
	p.vms = slices.Delete(p.vms, i, i+1)
	vm.Host = NoPM
	p.tally(1)
	p.bump()
	return nil
}

// Reserve holds demand on the PM without attaching a VM. The timed
// live-migration model uses this for the source side of a pre-copy
// migration: until cutover completes, the departing VM's resources remain
// committed on the source so no new placement can claim them. Reserve
// fails when the PM lacks room.
func (p *PM) Reserve(demand vector.V) error {
	if err := demand.Validate(); err != nil {
		return fmt.Errorf("cluster: reserve on PM %d: %w", p.ID, err)
	}
	if !demand.Fits(p.Used, p.Class.Capacity) {
		return fmt.Errorf("cluster: reservation %v does not fit on PM %d (used %v / cap %v)",
			demand, p.ID, p.Used, p.Class.Capacity)
	}
	p.Used.AddInPlace(demand)
	p.reserved.AddInPlace(demand)
	p.bump()
	return nil
}

// Release returns a previous reservation. Releasing more than is reserved
// is a programming error and panics: it would silently corrupt resource
// accounting.
func (p *PM) Release(demand vector.V) {
	if !demand.LE(p.reserved) {
		panic(fmt.Sprintf("cluster: releasing %v exceeds reservations %v on PM %d", demand, p.reserved, p.ID))
	}
	p.Used.SubInPlace(demand)
	p.reserved.SubInPlace(demand)
	for i := range p.Used {
		if p.Used[i] < 0 {
			p.Used[i] = 0
		}
		if p.reserved[i] < 0 {
			p.reserved[i] = 0
		}
	}
	p.bump()
}

// Reserved returns the currently reserved (non-VM) portion of Used.
func (p *PM) Reserved() vector.V { return p.reserved.Clone() }

// VMCount returns the number of VMs placed on the PM.
func (p *PM) VMCount() int { return len(p.vms) }

// VMs returns a copy of the hosted VMs, sorted by ID (deterministic
// iteration order matters for reproducible simulations).
func (p *PM) VMs() []*VM {
	return append(make([]*VM, 0, len(p.vms)), p.vms...)
}

// EachVM calls fn for every hosted VM in ascending ID order, without the
// copy VMs pays. fn must not host or evict on p.
func (p *PM) EachVM(fn func(*VM)) {
	for _, vm := range p.vms {
		fn(vm)
	}
}

// VM returns the hosted VM with the given ID, or nil.
func (p *PM) VM(id VMID) *VM {
	if i, ok := p.find(id); ok {
		return p.vms[i]
	}
	return nil
}

// HasVM reports whether the VM is placed on this PM.
func (p *PM) HasVM(id VMID) bool {
	_, ok := p.find(id)
	return ok
}

// find is a binary search for VM id in the hosted list: its index, or
// where it would be inserted, and whether it is there.
func (p *PM) find(id VMID) (int, bool) {
	return slices.BinarySearchFunc(p.vms, id, func(vm *VM, id VMID) int { return cmp.Compare(vm.ID, id) })
}

// Idle reports whether the PM is on, hosting no VMs, and holding no
// reservations (a migration source with an active hold is not idle — its
// resources are still committed).
func (p *PM) Idle() bool {
	return p.state == PMOn && len(p.vms) == 0 && p.reserved.IsZero()
}

// Utilization returns the PM's joint product utilization
// U_j = Π_k Used(k)/Capacity(k) (Section III.B.4).
func (p *PM) Utilization() float64 {
	return vector.Utilization(p.Used, p.Class.Capacity)
}

// UtilizationWith returns Eq. 4's U_j with demand on board: bit for bit
// vector.Utilization(p.Used.Add(demand), capacity), without allocating
// the sum. The matrix kernels, the candidate index and the fit-family
// placers all rate a PM by it.
func (p *PM) UtilizationWith(demand vector.V) float64 {
	u := 1.0
	cap := p.Class.Capacity
	for k := range cap {
		if cap[k] <= vector.Epsilon {
			if p.Used[k]+demand[k] <= vector.Epsilon {
				continue
			}
			return 0
		}
		f := (p.Used[k] + demand[k]) / cap[k]
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

// String implements fmt.Stringer.
func (p *PM) String() string {
	return fmt.Sprintf("PM%d{%s %s used=%v/%v vms=%d}",
		p.ID, p.Class.Name, p.state, p.Used, p.Class.Capacity, len(p.vms))
}
