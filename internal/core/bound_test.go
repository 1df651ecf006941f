package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stats"
)

// boundHazards are the ways the state the lazy rounds keep across passes —
// the roster's buckets and hosted-cell probabilities, the index's group
// products — or the state they must
// not trust could go wrong between two passes. Each step is followed
// by a pass on three identically built fleets (TestBoundHazards); check, when
// set, sees the production side's counters over the row's scripted passes.
var boundHazards = []struct {
	name   string
	params Params // zero: MIG_threshold 1.05, two rounds
	steps  []func(t *testing.T, s *rosterSide)
	check  func(t *testing.T, quiet bool, n boundCounts)
}{
	{name: "the top group's lone member hosts the column",
		// One core is freed on the first PM with none to spare, which makes
		// it the best target of every one-core shape and the only PM of its
		// group — and the host of columns that must not be bounded by it.
		// Everybody else's estimate expires, so nobody takes the core.
		steps: []func(*testing.T, *rosterSide){func(t *testing.T, s *rosterSide) {
			var full *cluster.PM
			for _, pm := range s.ctx.DC.PMs() {
				if pm.VMCount() > 0 && pm.Used[0] == pm.Class.Capacity[0] {
					full = pm
					break
				}
			}
			if full == nil {
				return // the fleet that has not packed yet: the row is about the other one
			}
			for _, vm := range full.VMs() {
				if vm.Demand[0] == 1 {
					s.evict(t, vm.ID, cluster.VMFinished)
					break
				}
			}
			for _, vm := range s.vms {
				if vm.Host != cluster.NoPM && vm.Host != full.ID {
					vm.EstimatedRuntime, vm.StartTime = 1, 0
				}
			}
		}},
		check: func(t *testing.T, quiet bool, n boundCounts) {
			if quiet && (n.soleHost == 0 || n.proven != 1) {
				t.Errorf("%d columns hosted on their shape's lone best PM, %d passes proven empty; want > 0, 1", n.soleHost, n.proven)
			}
		}},
	{name: "host reliability 0 declines",
		steps: []func(*testing.T, *rosterSide){
			func(t *testing.T, s *rosterSide) { s.ctx.DC.PM(s.vms[5].Host).SetReliability(0) },
		},
		check: func(t *testing.T, quiet bool, n boundCounts) {
			if (quiet && n.declined == 0) || n.moves == 0 { // a moving pass may be settled before the walk gets there
				t.Errorf("%d passes declined, %d rescue moves, want both > 0", n.declined, n.moves)
			}
		}},
	{name: "expired estimates are resolved by the sweep",
		// Every p_vir is 0, so every key is: the sweep keeps no column and
		// proves the pass empty without an exact scan.
		steps: []func(*testing.T, *rosterSide){
			func(t *testing.T, s *rosterSide) {
				for _, vm := range s.vms {
					vm.EstimatedRuntime, vm.StartTime = 1, 0 // T_re = 0: no gain anywhere
				}
			},
		},
		check: func(t *testing.T, _ bool, n boundCounts) {
			if n.scans != 0 || n.proven != 1 || n.builds != 0 {
				t.Errorf("%d exact scans, %d proven empty, %d builds; want 0, 1, 0", n.scans, n.proven, n.builds)
			}
		}},
	{name: "reliability perturbed",
		steps: []func(*testing.T, *rosterSide){
			func(t *testing.T, s *rosterSide) {
				pm := s.ctx.DC.PM(s.vms[5].Host)
				pm.SetReliability(pm.Reliability() * 0.5)
			},
			func(t *testing.T, s *rosterSide) {
				pm := s.ctx.DC.PM(s.vms[9].Host)
				pm.SetReliability(pm.Reliability() * 0.9)
			},
		},
		check: func(t *testing.T, _ bool, n boundCounts) {
			if n.moves == 0 {
				t.Error("halving a host's reliability moved nothing")
			}
		}},
	{name: "PM shutdown, boot and failure", steps: rosterHazards[3].steps},
	{name: "a threshold just above 1", params: Params{MIGThreshold: math.Nextafter(1, 2), MIGRound: 2},
		steps: []func(*testing.T, *rosterSide){
			func(t *testing.T, s *rosterSide) { s.evict(t, 7, cluster.VMFinished) },
		}},
	{name: "fresh Context after a restore", steps: rosterHazards[5].steps},
}

// boundCounts is the production side's lazy-round counters and engine
// builds, and what the test itself counts.
type boundCounts struct {
	proven, declined, scans, builds int64
	moves, soleHost                 int
}

func boundCountsOf(o *obs.Observer) boundCounts {
	return boundCounts{
		proven:   o.Counter("core.passes_proven_empty").Value(),
		declined: o.Counter("core.bound_declined").Value(),
		scans:    o.Counter("core.exact_column_scans").Value(),
		builds:   o.Phase("kernel_build").Calls(),
	}
}

// TestBoundHazards runs every hazard on a fleet that moves and on the same
// fleet consolidated to a standstill. After each step, with the clock
// advanced so every p_vir has aged, three sides pass: the production one
// (ConsolidateWith's lazy rounds), an audited one (SelfAudit: every round
// is held to a cold dense build, checkRound) and a cold dense one built by
// constructor, whose moves the other two must make. The production side
// builds no engine at all.
func TestBoundHazards(t *testing.T) {
	var total boundCounts
	for _, quiet := range []bool{false, true} {
		for _, hz := range boundHazards {
			t.Run(map[bool]string{false: "moving/", true: "quiet/"}[quiet]+hz.name, func(t *testing.T) {
				params := hz.params
				if params == (Params{}) {
					params = Params{MIGThreshold: 1.05, MIGRound: 2}
				}
				plain, audited, cold := newRosterSide(t), newRosterSide(t), newRosterSide(t)
				sides := []*rosterSide{plain, audited, cold}
				observer := obs.New()
				var row boundCounts
				pass := func(step int, scripted bool) int {
					t.Helper()
					for _, s := range sides {
						s.ctx.Now += 900
					}
					// A restore step replaces the Context.
					plain.ctx.Obs, audited.ctx.SelfAudit = observer, true
					before := boundCountsOf(observer)
					want := denseConsolidate(t, cold.ctx, DefaultFactors(), params)
					for _, s := range sides[:2] {
						got, err := ConsolidateWith(s.ctx, DefaultFactors(), params, MatrixOptions{})
						if err != nil {
							t.Fatalf("after step %d: %v", step, err)
						}
						assertMovesEqual(t, want, got)
					}
					after := boundCountsOf(observer)
					declined := after.declined - before.declined
					if built := after.builds - before.builds; built != 0 {
						t.Fatalf("after step %d: %d engines built for a pass of %d moves", step, built, len(want))
					}
					if !scripted {
						return len(want)
					}
					row.proven += after.proven - before.proven
					row.declined += declined
					row.scans += after.scans - before.scans
					row.builds += after.builds - before.builds
					row.moves += len(want)
					if after.proven > before.proven { // the tops are this pass's
						for _, vm := range MigratableVMs(plain.ctx.DC) {
							if plain.ctx.cand.shape(plain.ctx.shapeID(vm.Demand)).top.sole == int32(vm.Host) {
								row.soleHost++
							}
						}
					}
					return len(want)
				}
				for settle := 0; quiet && pass(0, false) > 0; settle++ {
					if settle > 100 {
						t.Fatal("fixture does not come to rest")
					}
				}
				for i, step := range hz.steps {
					for _, s := range sides {
						step(t, s)
					}
					pass(i+1, true)
				}
				if hz.check != nil {
					hz.check(t, quiet, row)
				}
				total.proven += row.proven
				total.moves += row.moves
			})
		}
	}
	if total.proven == 0 || total.moves == 0 {
		t.Fatalf("degenerate table: %d passes proven empty, %d moves", total.proven, total.moves)
	}
}

// TestCheckProofRejectsWrongVerdicts: the check SelfAudit runs every round
// fails by name when a round's choice or sweep contradicts the cold build —
// a moving round taken for the end of the pass and the reverse, another
// column chosen, a bound below its built gain, a column left out of the
// sweep that can move, a swept VM that is not a column — when a column's
// group scan or the index's structure disagrees with it, and when the
// roster's hosted-cell probability is stale.
func TestCheckProofRejectsWrongVerdicts(t *testing.T) {
	ctx, vms := spreadState(t, 16, 30, 3)
	build := func() *Matrix {
		t.Helper()
		m, err := NewMatrix(ctx, DefaultFactors(), vms)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := build()
	_, _, gain, _ := ref.Best()
	if err := ctx.CheckProof(ref, 1.05); err != nil || gain <= 1.05 {
		t.Fatalf("moving fixture: best gain %g, CheckProof %v", gain, err)
	}
	ch, _ := ctx.choose(ctx.cand)
	swept := slices.Clone(ctx.swept)
	wrong := map[string]func(){
		"a moving round accepted as the end of the pass": func() { ch.vm, ch.gain = nil, 0 },
		"another column accepted as the choice": func() {
			ch.vm = ref.vms[(slices.Index(ref.vms, ch.vm)+1)%len(ref.vms)]
		},
		"a bound below its built gain accepted": func() {
			ctx.swept[slices.IndexFunc(ctx.swept, func(s survivor) bool { return s.vm == ch.vm })].key = math.Nextafter(ch.gain, 0)
		},
		"a column that moves left out of the sweep": func() {
			ctx.swept = slices.DeleteFunc(ctx.swept, func(s survivor) bool { return s.vm == ch.vm })
		},
		"a VM that is not a column swept": func() {
			ctx.swept = append(ctx.swept, survivor{vm: cluster.NewVM(1<<20, vms[0].Demand, 1, 1, 0), key: 2})
		},
	}
	for name, corrupt := range wrong {
		saved := ch
		ctx.swept = append(ctx.swept[:0], swept...)
		corrupt()
		if err := ctx.checkRound(ref, ch, 1.05); err == nil {
			t.Error(name)
		}
		ch = saved
	}
	ctx.swept = append(ctx.swept[:0], swept...)
	c := slices.Index(ref.vms, ch.vm)
	saved := ref.bestP[c]
	ref.bestP[c] = math.Nextafter(saved, 0)
	if err := ctx.checkRound(ref, ch, 1.05); err == nil || !strings.Contains(err.Error(), "group scan") {
		t.Errorf("a group scan that disagrees with the cold build accepted: %v", err)
	}
	ref.bestP[c] = saved
	ctx.cand.shapeList[0].nonEmpty++
	if err := ctx.checkRound(ref, ch, 1.05); err == nil {
		t.Error("a miscounted index accepted")
	}
	ctx.cand.shapeList[0].nonEmpty--
	if err := ctx.CheckProof(ref, gain); err != nil {
		t.Errorf("threshold at the best gain itself: %v", err)
	}
	ch.gain = math.Nextafter(gain, math.Inf(1))
	if err := ctx.checkRound(ref, ch, gain); err == nil {
		t.Error("an empty pass accepted as moving")
	}
	ref.Release()

	ctx.roster.pms[vms[0].Host].cur *= 2
	ref = build()
	defer ref.Release()
	if err := ctx.CheckProof(ref, 1.05); err == nil {
		t.Error("a stale hosted-cell probability the feed does not name went unnoticed")
	}
	dense, err := NewMatrix(ctx, opaqueFactors(DefaultFactors()), vms)
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Release()
	if err := ctx.CheckProof(dense, 1.05); err == nil {
		t.Error("CheckProof ran over a factor list the index does not evaluate")
	}
}

// TestRefineKeyDominates holds refineKey to its promise (DESIGN.md §13, "The
// refined key") over random and adversarial draws: for a score group (rel,
// eff) whose product is at most the cell's v, a p_vir vir at most vmax and a
// positive cur, the key of the cell's bound fl(v/cur) is never below the
// exact gain fl(fl(fl(vir*rel)*eff)/cur) — candGroup.value, then normGain —
// never above the bound, and never NaN. The adversarial values sit one ulp
// apart around the guard, the normal range's edge and 1; they include
// subnormals, vmax = 0, cur in the subnormals (the bound overflows) and
// products near MaxFloat64.
func TestRefineKeyDominates(t *testing.T) {
	checks, refined := 0, 0
	check := func(rel, eff, cur, vmax, vir, v float64) {
		checks++
		grp := newCandGroup(candKey{rel: math.Float64bits(rel), price: math.Float64bits(1)}, eff)
		g := normGain(0, grp.value(vir), cur)
		b := v / cur
		key := refineKey(b, cur, vmax)
		if !(key >= g) || key > b {
			t.Fatalf("rel %x eff %x cur %x vmax %x vir %x v %x: key %x, gain %x, bound %x",
				rel, eff, cur, vmax, vir, v, key, g, b)
		}
		if key < b {
			refined++
		}
	}
	// each draws vir at, one ulp below and well below vmax, and v at the
	// group's own product and one ulp above it.
	each := func(rel, eff, cur, vmax float64) {
		for _, vir := range []float64{vmax, math.Nextafter(vmax, 0), vmax / 3, 0} {
			for _, v := range []float64{rel * eff, math.Nextafter(rel*eff, math.Inf(1))} {
				check(rel, eff, cur, vmax, vir, v)
			}
		}
	}

	ulps := func(xs ...float64) []float64 { // each x and its positive neighbours
		var out []float64
		for _, x := range xs {
			if y := math.Nextafter(x, 0); y > 0 {
				out = append(out, y)
			}
			out = append(out, x, math.Nextafter(x, math.Inf(1)))
		}
		return out
	}
	unit := append(ulps(0x1p-1074, 0x1p-1022, 0x1p-1019, 0x1p-600, 0x1p-60, 0.5), 0.3, math.Nextafter(1, 0), 1)
	wide := append(slices.Clone(unit), ulps(2, 0x1p600, math.MaxFloat64/2)...)
	wide = append(wide, math.Nextafter(math.MaxFloat64, 0), math.MaxFloat64)
	for _, rel := range wide {
		for _, eff := range unit {
			for _, cur := range wide {
				for _, vmax := range append([]float64{0}, unit...) {
					each(rel, eff, cur, vmax)
				}
			}
		}
	}

	r := stats.NewRand(1)
	draw := func() float64 { // in (0, 1]: uniform, or a random binade down to the subnormals
		if r.Intn(2) == 0 {
			return 1 - r.Float64()
		}
		return math.Ldexp(1-r.Float64()/2, -r.Intn(1074))
	}
	for range 1 << 17 {
		rel, eff, cur, vmax := draw(), draw(), draw(), draw()
		if r.Intn(4) == 0 {
			rel = min(1/draw(), math.MaxFloat64) // above 1, up to MaxFloat64
		}
		each(rel, eff, cur, vmax)
	}
	if refined < checks/4 {
		t.Fatalf("only %d of %d keys refined below their bound", refined, checks)
	}
}
