package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/spare"
)

// FactorVariants returns the dynamic scheme plus one variant per dropped
// probability factor, quantifying what each of Eq. 2-5's terms contributes.
// The resource factor is never dropped — without it placements would be
// infeasible.
func FactorVariants() []policy.Placer {
	params := core.DefaultParams()
	return []policy.Placer{
		policy.NewDynamic(),
		policy.NewDynamicVariant("dyn-no-vir",
			[]core.Factor{core.ResourceFactor{}, core.ReliabilityFactor{}, core.EfficiencyFactor{}}, params),
		policy.NewDynamicVariant("dyn-no-eff",
			[]core.Factor{core.ResourceFactor{}, core.VirtualizationFactor{}, core.ReliabilityFactor{}}, params),
		policy.NewDynamicVariant("dyn-no-rel",
			[]core.Factor{core.ResourceFactor{}, core.VirtualizationFactor{}, core.EfficiencyFactor{}}, params),
	}
}

// dynamicAs is the dynamic scheme under a row label and its own
// Algorithm-1 parameters.
func dynamicAs(label string, params core.Params) policy.Placer {
	return policy.NewDynamicVariant(label, core.DefaultFactors(), params)
}

// AblateFactors runs the factor ablation over the week trace.
func AblateFactors(opts Options) ([]*SchemeRun, error) {
	var vs []variant
	for _, placer := range FactorVariants() {
		vs = append(vs, opts.variantOf(placer))
	}
	return runVariants(vs, opts)
}

// AblateThreshold sweeps MIG_threshold, the knob that separates "churn
// freely" from "never migrate" (Section III.C sets 1.05).
func AblateThreshold(opts Options, thresholds []float64) ([]*SchemeRun, error) {
	var vs []variant
	for _, th := range thresholds {
		params := core.DefaultParams()
		params.MIGThreshold = th
		vs = append(vs, opts.variantOf(dynamicAs(fmt.Sprintf("dyn-th%.2f", th), params)))
	}
	return runVariants(vs, opts)
}

// AblateRounds sweeps MIG_round, the per-pass migration budget.
func AblateRounds(opts Options, rounds []int) ([]*SchemeRun, error) {
	var vs []variant
	for _, n := range rounds {
		params := core.DefaultParams()
		params.MIGRound = n
		vs = append(vs, opts.variantOf(dynamicAs(fmt.Sprintf("dyn-r%d", n), params)))
	}
	return runVariants(vs, opts)
}

// AblateSpareAlpha sweeps the QoS tail bound alpha of the spare-server
// controller (the paper fixes 0.05) plus a no-spare configuration,
// exposing the energy/QoS trade-off directly. The rows set their own
// controller, so Options.SpareForDynamic does not apply.
func AblateSpareAlpha(opts Options, alphas []float64) ([]*SchemeRun, error) {
	vs := []variant{{placer: dynamicAs("dyn-nospare", core.DefaultParams())}}
	for _, a := range alphas {
		sc := spare.DefaultConfig()
		sc.Alpha = a
		vs = append(vs, variant{placer: dynamicAs(fmt.Sprintf("dyn-a%.3f", a), core.DefaultParams()), spare: &sc})
	}
	return runVariants(vs, opts)
}

// AblateMigrationModel contrasts the paper's instantaneous migration model
// with the timed pre-copy model (source-side double occupancy, one
// migration in flight per VM) on the same trace.
func AblateMigrationModel(opts Options) ([]*SchemeRun, error) {
	instant := opts.variantOf(dynamicAs("dyn-instant", core.DefaultParams()))
	timed := opts.variantOf(dynamicAs("dyn-timed", core.DefaultParams()))
	timed.timed = true
	return runVariants([]variant{instant, timed}, opts)
}

// AblationReport renders an ablation's summary rows plus the QoS column
// the trade-offs hinge on.
func AblationReport(title string, runs []*SchemeRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if err := metrics.WriteSummaries(&b, SummaryRows(runs)); err != nil {
		fmt.Fprintf(&b, "render error: %v\n", err)
	}
	return b.String()
}
