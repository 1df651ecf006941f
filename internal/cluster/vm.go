// Package cluster models the virtualized data center the placement scheme
// manages: virtual machines (VM requests), physical machines (PMs) with
// heterogeneous capacities and virtualization overheads, and the Datacenter
// aggregate that tracks the VM/PM mapping.
//
// The models follow Section III.A and Table II of the paper: a VM request is
// a K-dimensional resource demand plus an estimated runtime, a PM is a
// K-dimensional capacity plus creation/migration/on-off overheads, power
// constants, and a reliability probability.
package cluster

import (
	"fmt"

	"repro/internal/vector"
)

// VMID identifies a VM request within a simulation run.
type VMID int

// NoVM is the zero-value "no such VM" sentinel.
const NoVM VMID = -1

// VMState is the lifecycle state of a VM request.
type VMState int

// VM lifecycle states. Transitions:
//
//	Queued -> Creating -> Running -> Finished
//	Running -> Migrating -> Running
//	Running/Creating -> Queued (host failure re-queues the VM)
const (
	VMQueued VMState = iota
	VMCreating
	VMRunning
	VMMigrating
	VMFinished
)

// String implements fmt.Stringer.
func (s VMState) String() string {
	switch s {
	case VMQueued:
		return "queued"
	case VMCreating:
		return "creating"
	case VMRunning:
		return "running"
	case VMMigrating:
		return "migrating"
	case VMFinished:
		return "finished"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// VM is a virtual machine request. In the paper's notation a request i is
// the K+1-dimensional vector R_i whose first K components are resource
// demands and whose last component is the user-estimated runtime; here the
// demands live in Demand and the runtime estimate in EstimatedRuntime.
type VM struct {
	ID     VMID
	Demand vector.V // resource demands R_i(1..K)

	// EstimatedRuntime is the runtime the user submitted with the
	// request, R_i(K+1), in seconds. The scheme's virtualization-overhead
	// factor and departure prediction both consume this estimate.
	EstimatedRuntime float64

	// ActualRuntime is the true execution time in seconds, revealed to
	// the simulator (but never to the placement scheme) by the trace.
	ActualRuntime float64

	// SubmitTime is when the request entered the system (seconds since
	// simulation start).
	SubmitTime float64

	// StartTime is when the VM finished creation and began executing;
	// meaningful once the VM has reached VMRunning.
	StartTime float64

	// FinishTime is when the VM departed; meaningful once VMFinished.
	FinishTime float64

	// State is the current lifecycle state.
	State VMState

	// Host is the PM currently hosting (or creating) the VM, or NoPM.
	Host PMID

	// Migrations counts completed live migrations of this VM.
	Migrations int
}

// NewVM returns a queued VM request. It panics if the demand vector is
// invalid or the runtimes are negative; requests come from the workload
// layer which validates trace input, so malformed values here are bugs.
func NewVM(id VMID, demand vector.V, estimatedRuntime, actualRuntime, submitTime float64) *VM {
	if err := demand.Validate(); err != nil {
		panic(fmt.Sprintf("cluster: VM %d demand: %v", id, err))
	}
	if estimatedRuntime < 0 || actualRuntime < 0 || submitTime < 0 {
		panic(fmt.Sprintf("cluster: VM %d has negative time (est=%g act=%g submit=%g)",
			id, estimatedRuntime, actualRuntime, submitTime))
	}
	return &VM{
		ID:               id,
		Demand:           demand.Clone(),
		EstimatedRuntime: estimatedRuntime,
		ActualRuntime:    actualRuntime,
		SubmitTime:       submitTime,
		State:            VMQueued,
		Host:             NoPM,
	}
}

// RemainingEstimate returns the VM's estimated remaining runtime T_i^re at
// time now: the submitted estimate minus elapsed execution time, floored at
// zero. Before the VM starts running the full estimate remains.
func (v *VM) RemainingEstimate(now float64) float64 {
	switch v.State {
	case VMQueued, VMCreating:
		return v.EstimatedRuntime
	case VMFinished:
		return 0
	default:
		rem := v.EstimatedRuntime - (now - v.StartTime)
		if rem < 0 {
			return 0
		}
		return rem
	}
}

// Placed reports whether the VM currently occupies resources on some PM
// (creating, running, or migrating).
func (v *VM) Placed() bool {
	return v.State == VMCreating || v.State == VMRunning || v.State == VMMigrating
}

// String implements fmt.Stringer.
func (v *VM) String() string {
	return fmt.Sprintf("VM%d{%s demand=%v est=%gs host=%d}",
		v.ID, v.State, v.Demand, v.EstimatedRuntime, v.Host)
}
