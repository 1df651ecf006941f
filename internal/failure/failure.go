// Package failure models physical-machine failures for the reliability
// side of the placement scheme (Section III.B.3): while a PM is on it is
// exposed to an exponential failure clock; a failure forces every hosted
// VM to be re-placed ("if a physical machine fails, all the VMs that are
// running on it will be reallocated") and permanently lowers the machine's
// reliability probability, steering the placement factors away from flaky
// hardware.
package failure

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// Config parameterizes failure injection. The zero value disables it.
type Config struct {
	// MTBF is the per-PM mean time between failures while powered on,
	// in seconds. Zero disables failures.
	MTBF float64

	// RepairTime is how long a failed PM stays down before it becomes
	// bootable again.
	RepairTime float64

	// ReliabilityDecay multiplies the PM's reliability after each
	// failure (e.g. 0.9). Values outside (0, 1] are rejected.
	ReliabilityDecay float64

	// MinReliability floors the decay so a PM never becomes
	// unplaceable purely from history.
	MinReliability float64

	// Seed drives the failure clock.
	Seed int64
}

// Enabled reports whether failures are injected.
func (c Config) Enabled() bool { return c.MTBF > 0 }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MTBF < 0 || c.RepairTime < 0 {
		return fmt.Errorf("failure: negative times (mtbf=%g repair=%g)", c.MTBF, c.RepairTime)
	}
	if !c.Enabled() {
		return nil
	}
	if !(c.ReliabilityDecay > 0 && c.ReliabilityDecay <= 1) {
		return fmt.Errorf("failure: decay %g not in (0,1]", c.ReliabilityDecay)
	}
	if c.MinReliability < 0 || c.MinReliability > 1 {
		return fmt.Errorf("failure: min reliability %g not in [0,1]", c.MinReliability)
	}
	return nil
}

// Injector samples failure times and applies reliability decay.
type Injector struct {
	cfg Config
	rng *stats.Stream
}

// NewInjector builds an injector; it panics on invalid configuration.
func NewInjector(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg, rng: stats.NewRand(cfg.Seed)}
}

// RNGState captures the failure clock's stream state for a checkpoint.
func (i *Injector) RNGState() stats.StreamState { return i.rng.State() }

// RestoreRNG reloads a checkpointed stream state so post-resume failure
// draws continue the original sequence exactly.
func (i *Injector) RestoreRNG(st stats.StreamState) error {
	rng, err := stats.RestoreStream(st)
	if err != nil {
		return err
	}
	i.rng = rng
	return nil
}

// RepairTime returns the configured repair duration.
func (i *Injector) RepairTime() float64 { return i.cfg.RepairTime }

// SampleTimeToFailure draws the next time-to-failure for a PM that just
// powered on.
func (i *Injector) SampleTimeToFailure() float64 {
	return stats.Exponential(i.rng, i.cfg.MTBF)
}

// Fail records a failure on pm: increments its failure count and decays
// its reliability probability (floored at MinReliability). The caller
// handles state transitions and VM re-placement.
func (i *Injector) Fail(pm *cluster.PM) {
	pm.Failures++
	pm.SetReliability(max(pm.Reliability()*i.cfg.ReliabilityDecay, i.cfg.MinReliability))
}
