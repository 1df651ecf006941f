package exp

import (
	"bytes"
	"hash/fnv"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spare"
	"repro/internal/workload"
)

// denseRequests is how many of the seed-1 week's requests the dense-path
// digests replay (about the first day), and denseAudited how many of them
// the audited comparison replays: audit.Event round-trips a checkpoint every
// control period, which is most of an audited run's cost.
const (
	denseRequests = 1500
	denseAudited  = 300
)

// canonDigest is the FNV-64a of a stream's canonical form
// (obs.Canonicalize).
func canonDigest(t *testing.T, stream *bytes.Buffer) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := obs.Canonicalize(bytes.NewReader(stream.Bytes()), h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestDensePathDigest pins the runs of the factor lists other than the
// paper's four that the binaries build — E-A1a's FactorVariants and
// examples/multiregion's PriceFactor — which a dense matrix ran before
// they joined the candidate index; the digests were taken on that path and
// the index writes them bit for bit. The first 1,500 seed-1 requests run on
// the Table II fleet with spares and a policy.Recorder, and the FNV-64a
// digests of the canonical run trace and decision log are pinned for two
// lists: dyn-no-vir, and the paper's four plus a PriceFactor that puts the
// upper half of the fleet in a pricier region. The unaudited run builds no
// cold reference (no kernel_build call). The first 300 requests, run under
// audit.Event (every lazy round held to the cold reference, built under
// the kernel_build phase), must write the run trace they write unaudited.
func TestDensePathDigest(t *testing.T) {
	price := core.NewPriceFactor([]string{"east", "west"}, "east",
		core.FlatPrices(map[string]float64{"east": 0.08, "west": 0.24}))
	for id := cluster.PMID(50); id < 100; id++ {
		price.Assign(id, "west")
	}
	cases := []struct {
		name             string
		factors          []core.Factor
		wantRun, wantDec uint64
	}{
		{"dyn-no-vir", []core.Factor{core.ResourceFactor{}, core.ReliabilityFactor{}, core.EfficiencyFactor{}},
			0x14778e2e28a2ae26, 0x7522837e5a2c7ec},
		{"dyn+price", append(core.DefaultFactors(), price), 0x55e79353cb042d6, 0x3e019f906b31c6f0},
	}
	_, week := WeekTrace(1)
	reqs := week[:denseRequests]
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var o *obs.Observer
			run := func(reqs []workload.Request, mode audit.Mode) (runDigest, decDigest uint64, res *sim.Result) {
				t.Helper()
				var trace, dec bytes.Buffer
				o = obs.New()
				o.Trace, o.Decisions = obs.NewTracer(&trace), obs.NewTracer(&dec)
				sc := spare.DefaultConfig()
				res, err := sim.Run(sim.Config{
					DC:       cluster.TableIIFleet(),
					Placer:   policy.NewRecorder(policy.NewDynamicVariant(tc.name, tc.factors, core.DefaultParams()), 0),
					Requests: reqs,
					Spare:    &sc,
					Obs:      o,
					Audit:    mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				return canonDigest(t, &trace), canonDigest(t, &dec), res
			}
			gotRun, gotDec, res := run(reqs, audit.Off)
			if gotRun != tc.wantRun || gotDec != tc.wantDec {
				t.Errorf("run trace digest %#x, decision log %#x; want %#x, %#x", gotRun, gotDec, tc.wantRun, tc.wantDec)
			}
			if n := o.Phase("kernel_build").Calls(); n != 0 {
				t.Errorf("the unaudited run built %d cold references, want none", n)
			}
			t.Logf("%d requests: %d moves, %.1f kWh", len(reqs), len(res.Moves), res.Summary.TotalEnergyKWh)
			plain, _, _ := run(reqs[:denseAudited], audit.Off)
			audited, _, res := run(reqs[:denseAudited], audit.Event)
			if audited != plain {
				t.Errorf("first %d requests: audited run trace digest %#x, unaudited %#x", denseAudited, audited, plain)
			}
			t.Logf("first %d requests audited: %d moves, %d checks", denseAudited, len(res.Moves), res.AuditChecks)
		})
	}
}
