// Package spare implements the paper's spare-server controller
// (Section IV): every control period T it decides how many idle PMs to
// keep powered on so that unexpected arrivals do not queue, while letting
// the consolidation scheme switch everything else off.
//
// The controller models incoming VM requests as a non-homogeneous Poisson
// process. Each period it:
//
//  1. estimates Λ(t, t+T), the expected arrivals in the next period, with
//     the Leemis nonparametric estimator (internal/nhpp);
//  2. picks n_arrival as the smallest n with P(N > n) <= alpha, the QoS
//     bound (the paper uses alpha = 0.05: "less than 5% of VM requests
//     have to wait in the queue because of insufficient PMs");
//  3. derives n_departure from the runtime estimates of running VMs;
//  4. sets N_spare = ceil((n_arrival - n_departure) / N_Ave) when arrivals
//     exceed departures, else 0 (Eq. 8), where N_Ave is the average number
//     of VMs a non-idle PM hosts.
package spare

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/nhpp"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config parameterizes the controller. The control period T is not part
// of it: NewController takes the caller's (the simulator's controlPeriod).
type Config struct {
	// Alpha is the QoS tail bound: P(arrivals > n_arrival) <= Alpha.
	Alpha float64

	// Cycle is the workload's periodicity fed to the NHPP estimator
	// (86400 for daily cycles).
	Cycle float64

	// MaxSpares caps the number of spare servers (0 = no cap beyond the
	// fleet size). A cap protects against estimator blow-ups early in a
	// run.
	MaxSpares int

	// NAveFallback seeds N_Ave before any VM has run.
	NAveFallback float64

	// ChurnAware enables the corrected departure estimate (an
	// improvement over the paper's Eq. 8 motivated by the E-R2 study in
	// EXPERIMENTS.md). The paper's n_departure counts only *currently
	// running* VMs that finish within T; when typical task lifetimes
	// are short relative to T, most of the predicted arrivals also
	// depart again within the period, so Eq. 8 wildly overestimates net
	// growth. The churn-aware estimate adds the expected within-period
	// completions of the arrivals themselves, using the observed mean
	// runtime of recently finished VMs:
	//
	//	n_departure' = n_departure + n_arrival * min(1, T / (2*meanRun))
	//
	// (an arriving task lands uniformly within the period, so it has
	// T/2 expected residual window; tasks shorter than that finish).
	ChurnAware bool
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Alpha:        0.05,
		Cycle:        86400,
		NAveFallback: 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !(c.Alpha > 0 && c.Alpha < 1) {
		return fmt.Errorf("spare: alpha %g not in (0,1)", c.Alpha)
	}
	if c.Cycle <= 0 {
		return fmt.Errorf("spare: cycle must be positive, got %g", c.Cycle)
	}
	if c.MaxSpares < 0 {
		return fmt.Errorf("spare: negative spare cap")
	}
	if c.NAveFallback <= 0 {
		return fmt.Errorf("spare: N_Ave fallback must be positive")
	}
	return nil
}

// Controller tracks arrivals and produces spare-server plans.
type Controller struct {
	cfg    Config
	period float64 // T, the window PlanSpares plans over
	est    *nhpp.Estimator

	// obs, when non-nil, receives the spare_plan timing span (span), the
	// plan counter (plans) and the current spare target.
	obs   *obs.Observer
	span  obs.SpanRef
	plans obs.CounterRef

	// runtime statistics of completed VMs, for the churn-aware
	// departure correction.
	runSum   float64
	runCount int
}

// NewController builds a controller that plans over windows of period
// seconds (T, 3600 in the paper's hourly evaluation) and reports its
// planning time and decisions to o (nil: nowhere); it panics on an invalid
// configuration or a non-positive period (both are static and
// author-supplied).
func NewController(cfg Config, period float64, o *obs.Observer) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if !(period > 0) {
		panic(fmt.Sprintf("spare: period must be positive, got %g", period))
	}
	return &Controller{cfg: cfg, period: period, est: nhpp.New(cfg.Cycle),
		obs: o, span: o.SpanRef("spare_plan"), plans: o.CounterRef("spare.plans")}
}

// RecordArrival feeds one VM-request arrival at time t into the NHPP
// estimator.
func (c *Controller) RecordArrival(t float64) { c.est.Observe(t) }

// State is the controller's serializable learning state: the NHPP
// observation window plus the completed-runtime accumulator behind the
// churn-aware departure correction.
type State struct {
	NHPP     nhpp.State `json:"nhpp"`
	RunSum   float64    `json:"run_sum"`
	RunCount int        `json:"run_count"`
}

// State captures the controller's learning state for a checkpoint.
func (c *Controller) State() State {
	return State{NHPP: c.est.State(), RunSum: c.runSum, RunCount: c.runCount}
}

// RestoreState reloads a checkpointed learning state into the controller,
// replacing whatever it had accumulated.
func (c *Controller) RestoreState(st State) error {
	if st.RunCount < 0 || st.RunSum < 0 {
		return fmt.Errorf("spare: negative runtime accumulator (%g over %d)", st.RunSum, st.RunCount)
	}
	est, err := nhpp.Restore(c.cfg.Cycle, st.NHPP)
	if err != nil {
		return err
	}
	c.est = est
	c.runSum = st.RunSum
	c.runCount = st.RunCount
	return nil
}

// RecordCompletion feeds one finished VM's actual runtime into the
// churn-aware departure model. Harmless to call when ChurnAware is off.
func (c *Controller) RecordCompletion(runtime float64) {
	if runtime > 0 {
		c.runSum += runtime
		c.runCount++
	}
}

// MeanRuntime returns the observed mean runtime of completed VMs, or 0
// before any completion.
func (c *Controller) MeanRuntime() float64 {
	if c.runCount == 0 {
		return 0
	}
	return c.runSum / float64(c.runCount)
}

// Plan is the controller's decision for one control period.
type Plan struct {
	// At is the decision time t.
	At float64

	// ExpectedArrivals is Λ̂(t, t+T).
	ExpectedArrivals float64

	// NArrival is the QoS-quantile arrival count (step 2 above).
	NArrival int

	// NDeparture is the number of VMs predicted to finish within the
	// period from their submitted runtime estimates (plus, when
	// ChurnAware is on, the expected within-period completions of the
	// predicted arrivals themselves).
	NDeparture int

	// NAve is the average-VMs-per-PM divisor used.
	NAve float64

	// Spares is N_spare, the number of idle PMs to keep (or bring) on.
	Spares int
}

// PlanSpares computes the spare-server plan at time now for the next
// control period. dc supplies departure predictions (via VM runtime
// estimates) and N_Ave.
func (c *Controller) PlanSpares(now float64, dc *cluster.Datacenter) Plan {
	phase := c.span.Span()
	defer phase.End(phase.Begin())
	c.est.Advance(now)
	p := Plan{At: now}
	p.ExpectedArrivals = c.est.CumulativeIntensity(now, now+c.period)
	p.NArrival = stats.PoissonQuantile(p.ExpectedArrivals, c.cfg.Alpha)
	p.NDeparture = PredictDepartures(dc, now, c.period)
	if c.cfg.ChurnAware {
		if mean := c.MeanRuntime(); mean > 0 {
			frac := c.period / (2 * mean)
			if frac > 1 {
				frac = 1
			}
			p.NDeparture += int(float64(p.NArrival) * frac)
		}
	}
	p.NAve = dc.AverageVMsPerPM(c.cfg.NAveFallback)

	if diff := p.NArrival - p.NDeparture; diff > 0 && p.NAve > 0 {
		p.Spares = int(math.Ceil(float64(diff) / p.NAve))
	}
	if c.cfg.MaxSpares > 0 && p.Spares > c.cfg.MaxSpares {
		p.Spares = c.cfg.MaxSpares
	}
	if p.Spares > dc.Size() {
		p.Spares = dc.Size()
	}
	c.plans.Add(1)
	c.obs.SetGauge("spare.target", float64(p.Spares))
	return p
}

// PredictDepartures returns n_departure(t, t+T): how many running VMs are
// expected to finish within the window according to their submitted
// runtime estimates ("it can be easily derived, since each VM request is
// submitted with an estimated running time", Section IV).
func PredictDepartures(dc *cluster.Datacenter, now, period float64) int {
	// CountVMs rather than materializing RunningVMs: the prediction runs
	// every control period and only needs a count, not a sorted slice.
	return dc.CountVMs(func(vm *cluster.VM) bool {
		if vm.State != cluster.VMRunning && vm.State != cluster.VMMigrating {
			return false
		}
		return vm.RemainingEstimate(now) <= period
	})
}
