// Package audit implements the simulation invariant auditor: a pluggable
// set of checkers that walk the full datacenter state and verify the
// conservation laws the simulation is supposed to maintain — placement
// bookkeeping, capacity bounds (Eq. 2), energy accounting, spare-plan
// bounds, and bit-identical agreement between the lazy rounds on the
// incrementally kept candidate index and core's cold reference, Joint on
// every (Running VM, active PM) pair.
//
// Checks come in two granularities. Cheap O(M+N) state walks run after
// every event when the auditor is in Event mode; the expensive O(M*N)
// differential against the cold reference (SparseCheck) runs once per
// control period in either enabled mode. The simulator wires the auditor
// in via -audit=off|period|event.
package audit

import (
	"fmt"
	"strings"
)

// Mode selects how often the auditor runs.
type Mode int

const (
	// Off disables auditing entirely.
	Off Mode = iota
	// Period runs every check once per control period (the default
	// enabled mode; adds one cold reference build per period).
	Period
	// Event additionally runs the cheap per-event checks after every
	// dispatched event. Slow — meant for debugging and CI audit runs.
	Event
)

// ParseMode parses a -audit flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "":
		return Off, nil
	case "period":
		return Period, nil
	case "event":
		return Event, nil
	default:
		return Off, fmt.Errorf("audit: unknown mode %q (want off, period, or event)", s)
	}
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Period:
		return "period"
	case Event:
		return "event"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Check is one invariant verifier. Fn receives the current simulation
// time and returns a descriptive error when the invariant is violated.
type Check struct {
	// Name identifies the check in the error of a run it fails and in
	// reports.
	Name string

	// PerEvent marks the check cheap enough to run after every event in
	// Event mode. Expensive checks leave it false and run per period
	// only.
	PerEvent bool

	// Fn verifies the invariant at simulation time now.
	Fn func(now float64) error
}

// Auditor runs a registered set of checks against live simulation state.
// The zero value is usable; Register checks, then call RunEvent/RunPeriod
// from the simulation loop.
type Auditor struct {
	checks []Check
	ran    int
}

// Register adds a check. Panics on a nil Fn or empty name: checks are
// wired at construction time and a silent no-op checker would defeat the
// auditor's purpose.
func (a *Auditor) Register(c Check) {
	if c.Fn == nil {
		panic("audit: registering check with nil Fn")
	}
	if c.Name == "" {
		panic("audit: registering check with empty name")
	}
	a.checks = append(a.checks, c)
}

// RunEvent runs the per-event checks at time now and returns the first
// violation as an error (nil when all pass).
func (a *Auditor) RunEvent(now float64) error { return a.run(now, true) }

// RunPeriod runs every registered check at time now and returns the first
// violation as an error (nil when all pass).
func (a *Auditor) RunPeriod(now float64) error { return a.run(now, false) }

func (a *Auditor) run(now float64, perEventOnly bool) error {
	var first error
	for _, c := range a.checks {
		if perEventOnly && !c.PerEvent {
			continue
		}
		a.ran++
		if err := c.Fn(now); err != nil && first == nil {
			first = fmt.Errorf("audit: %s at t=%.3f: %w", c.Name, now, err)
		}
	}
	return first
}

// Checks returns how many individual check executions have run.
func (a *Auditor) Checks() int { return a.ran }
