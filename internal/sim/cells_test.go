package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/snapshot"
	"repro/internal/spare"
	"repro/internal/stats"
)

// cellCfg is the adversarial multi-cell configuration: dynamic placer,
// spare controller, timed migrations, and a failure rate high enough
// that cross-cell re-queues and hold unwinds happen routinely.
func cellCfg(cells int, failSeed int64, trace *bytes.Buffer) Config {
	sc := spare.DefaultConfig()
	cfg := Config{
		DC:       smallFleet(),
		Placer:   policy.NewDynamic(),
		Requests: fragmentingTrace(60),
		Spare:    &sc,
		Failures: failure.Config{
			MTBF: 5000, RepairTime: 120,
			ReliabilityDecay: 0.9, MinReliability: 0.2, Seed: failSeed,
		},
		TimedMigrations: true,
		WarmStart:       2,
		Cells:           cells,
	}
	if trace != nil {
		cfg.Obs = obs.NewTracing(trace)
	}
	return cfg
}

// TestShardedDispatchOrderMatchesMonolith is the engine-level
// differential: identical streams of tagged events — including nested
// schedules from inside callbacks and cancellations — fed to the
// monolithic engine and to sharded engines at several cell counts must
// dispatch in the identical order with identical clocks. This is the
// DESIGN.md §14 claim at its barest: sharding changes where an event is
// stored, never when it fires.
func TestShardedDispatchOrderMatchesMonolith(t *testing.T) {
	const fleet = 16
	type fired struct {
		kind uint8
		arg  int64
		at   float64
	}
	drive := func(eng scheduler, seed int64) []fired {
		rng := stats.NewStream(seed)
		var log []fired
		var schedule func(depth int)
		schedule = func(depth int) {
			kind := uint8(rng.Uint64()%9) + 1
			var arg int64
			switch kind {
			case evArrival, evCreationDone, evDeparture, evMigCutover:
				arg = int64(rng.Uint64()%300) + 1 // VM IDs are 1-based
			case evBootDone, evShutdownDone, evFailure, evRepaired:
				arg = int64(rng.Uint64() % fleet)
			}
			at := eng.Now() + float64(rng.Uint64()%5000)/7
			k, a := kind, arg
			eng.ScheduleTag(at, Tag{Kind: kind, Arg: arg}, func() {
				log = append(log, fired{kind: k, arg: a, at: eng.Now()})
				// A third of events spawn follow-ups, like real handlers.
				if depth < 3 && rng.Uint64()%3 == 0 {
					schedule(depth + 1)
					schedule(depth + 1)
				}
			})
		}
		var cancels []Event
		for i := 0; i < 400; i++ {
			schedule(0)
			if i%7 == 0 {
				ev := eng.ScheduleTag(eng.Now()+float64(rng.Uint64()%9000)/3,
					Tag{Kind: evRepaired, Arg: int64(rng.Uint64() % fleet)}, func() {
						t.Error("cancelled event fired")
					})
				cancels = append(cancels, ev)
			}
		}
		for _, ev := range cancels {
			ev.Cancel()
		}
		for eng.Step() {
			if err := eng.VerifyQueue(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		return log
	}

	for seed := int64(1); seed <= 4; seed++ {
		ref := drive(&Engine{}, seed)
		for _, cells := range []int{2, 4, 7, 16} {
			got := drive(newScheduler(cells, fleet), seed)
			if len(got) != len(ref) {
				t.Fatalf("seed %d cells %d: fired %d events, monolith fired %d", seed, cells, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d cells %d: dispatch %d = %+v, monolith %+v", seed, cells, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestCellDifferentialSweep mirrors PR 7's differential sweep for the
// multi-cell engine: per failure seed, the full adversarial simulation
// (spare controller, timed migrations, failures) as the serial monolith
// and under each row's variations. Every variant must reproduce the
// reference's canonical trace byte-for-byte and its exact Result. Beyond
// the cell counts of the first row: the sharded engine under the per-event
// auditor (VerifyQueue's cross-cell invariants after every event, the
// snapshot round-trip with its cell sections every period); a static
// scheme, whose run never touches the placement kernels; and the other
// seam bench/ drives, Config.KernelWorkers, alone and with cells.
func TestCellDifferentialSweep(t *testing.T) {
	fleet16 := func() *cluster.Datacenter { return cluster.TableIIFleetScaled(16) }
	dynamic := func() policy.Policy { return policy.NewDynamic() }
	for _, row := range []struct {
		name   string
		fleet  func() *cluster.Datacenter
		placer func() policy.Policy
		seeds  int64
		cells  []int
		vary   func(*Config)
	}{
		{"fleet6", smallFleet, dynamic, 8, []int{2, 3, 6}, func(*Config) {}},
		{"fleet16-audit", fleet16, dynamic, 2, []int{16}, func(c *Config) { c.Audit = audit.Event }},
		{"first-fit", smallFleet, func() policy.Policy { return policy.FirstFit{} }, 2, []int{4}, func(*Config) {}},
		{"kernel-workers", fleet16, dynamic, 2, []int{1, 4}, func(c *Config) { c.KernelWorkers = 2 }},
	} {
		for seed := int64(1); seed <= row.seeds; seed++ {
			var refTrace bytes.Buffer
			refCfg := cellCfg(1, seed, &refTrace)
			refCfg.DC, refCfg.Placer = row.fleet(), row.placer()
			refRes, err := Run(refCfg)
			if err != nil {
				t.Fatalf("%s seed %d monolith: %v", row.name, seed, err)
			}
			refCanon := canon(t, refTrace.Bytes())
			if len(refCanon) == 0 {
				t.Fatalf("%s seed %d: empty reference trace", row.name, seed)
			}
			for _, cells := range row.cells {
				var trace bytes.Buffer
				cfg := cellCfg(cells, seed, &trace)
				cfg.DC, cfg.Placer = row.fleet(), row.placer()
				row.vary(&cfg)
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d cells %d: %v", row.name, seed, cells, err)
				}
				if cfg.Audit != audit.Off && res.AuditChecks == 0 {
					t.Fatalf("%s seed %d cells %d: audited run reported zero checks", row.name, seed, cells)
				}
				got := canon(t, trace.Bytes())
				if !bytes.Equal(got, refCanon) {
					at, a, b := diffContext(refCanon, got)
					t.Fatalf("%s seed %d cells %d: trace diverges at byte %d:\nmonolith: ...%s\ncells:    ...%s",
						row.name, seed, cells, at, a, b)
				}
				if res.Summary != refRes.Summary {
					t.Fatalf("%s seed %d cells %d: summaries differ:\nmonolith: %+v\ncells:    %+v",
						row.name, seed, cells, res.Summary, refRes.Summary)
				}
				if len(res.Moves) != len(refRes.Moves) || res.Failures != refRes.Failures {
					t.Fatalf("%s seed %d cells %d: moves %d/%d failures %d/%d",
						row.name, seed, cells, len(res.Moves), len(refRes.Moves), res.Failures, refRes.Failures)
				}
			}
		}
	}
}

// TestCellCheckpointAcrossCellCounts pins the re-shard path: checkpoint
// a C=6 run at several event boundaries, restore each checkpoint into
// C=6, C=1, and C=3 worlds, and require every combination to complete
// the run with the uninterrupted monolith's canonical trace and Result.
// The snapshot's engine events are cell-agnostic (merged, tagged), so
// the restoring config's partition re-derives each event's cell; this
// test is what makes that a contract instead of an accident.
func TestCellCheckpointAcrossCellCounts(t *testing.T) {
	const seed = 3
	var fullTrace bytes.Buffer
	probe, err := New(cellCfg(1, seed, &fullTrace))
	if err != nil {
		t.Fatal(err)
	}
	resA := runToEnd(t, probe)
	total := probe.Dispatched()
	fullCanon := canon(t, fullTrace.Bytes())

	for _, frac := range []uint64{5, 2} {
		stop := total / frac
		var prefix bytes.Buffer
		m, err := New(cellCfg(6, seed, &prefix))
		if err != nil {
			t.Fatal(err)
		}
		for m.Dispatched() < stop {
			if ok, err := m.Step(); err != nil || !ok {
				t.Fatalf("step: ok=%v err=%v", ok, err)
			}
		}
		var ckpt bytes.Buffer
		if err := m.Save(&ckpt); err != nil {
			t.Fatalf("save at %d: %v", stop, err)
		}
		for _, cells := range []int{6, 1, 3} {
			var tail bytes.Buffer
			m2, err := Restore(cellCfg(cells, seed, &tail), bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				t.Fatalf("restore C=6 snapshot into C=%d at %d: %v", cells, stop, err)
			}
			resB := runToEnd(t, m2)
			combined := append(canon(t, prefix.Bytes()), canon(t, tail.Bytes())...)
			if !bytes.Equal(combined, fullCanon) {
				at, a, b := diffContext(fullCanon, combined)
				t.Fatalf("C=6 -> C=%d at %d/%d: trace diverges at byte %d:\nfull:    ...%s\nresumed: ...%s",
					cells, stop, total, at, a, b)
			}
			if resA.Summary != resB.Summary {
				t.Fatalf("C=6 -> C=%d at %d: summaries differ:\nfull:    %+v\nresumed: %+v",
					cells, stop, resA.Summary, resB.Summary)
			}
		}
	}
}

// TestCrashResumeCellBoundaries extends the crash-injection sweep to
// the multi-cell engine: a C=6 run checkpoints at every event boundary;
// each checkpoint restores into a cell count that cycles through
// {6, 1, 3} and must finish with the uninterrupted monolith's canonical
// trace. Crashes therefore land inside migration windows, repair
// windows, and mid-consolidation — at every point in the stream — and
// every restore exercises either the same-C or the re-shard path.
func TestCrashResumeCellBoundaries(t *testing.T) {
	load := fragmentingTrace(24)
	mk := func(cells int, trace *bytes.Buffer) Config {
		cfg := cellCfg(cells, 3, trace)
		cfg.Requests = load
		return cfg
	}

	var refTrace bytes.Buffer
	ref, err := New(mk(1, &refTrace))
	if err != nil {
		t.Fatal(err)
	}
	resA := runToEnd(t, ref)
	fullCanon := canon(t, refTrace.Bytes())

	type point struct {
		at        uint64
		ckpt      []byte
		prefixLen int
	}
	var (
		prefixTrace bytes.Buffer
		points      []point
	)
	m, err := New(mk(6, &prefixTrace))
	if err != nil {
		t.Fatal(err)
	}
	for {
		var ckpt bytes.Buffer
		if err := m.Save(&ckpt); err != nil {
			t.Fatalf("save at event %d: %v", m.Dispatched(), err)
		}
		points = append(points, point{at: m.Dispatched(), ckpt: ckpt.Bytes(), prefixLen: prefixTrace.Len()})
		ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	t.Logf("sweeping %d checkpoints", len(points))
	targets := []int{6, 1, 3}
	for i, pt := range points {
		cells := targets[i%len(targets)]
		var tail bytes.Buffer
		m2, err := Restore(mk(cells, &tail), bytes.NewReader(pt.ckpt))
		if err != nil {
			t.Fatalf("restore into C=%d at event %d: %v", cells, pt.at, err)
		}
		resB := runToEnd(t, m2)
		combined := append(canon(t, prefixTrace.Bytes()[:pt.prefixLen]), canon(t, tail.Bytes())...)
		if !bytes.Equal(combined, fullCanon) {
			at, a, b := diffContext(fullCanon, combined)
			t.Fatalf("crash at event %d into C=%d: trace diverges at byte %d:\nfull:    ...%s\nresumed: ...%s",
				pt.at, cells, at, a, b)
		}
		if resA.Summary != resB.Summary {
			t.Fatalf("crash at event %d into C=%d: summaries differ:\nfull: %+v\nresumed: %+v",
				pt.at, cells, resA.Summary, resB.Summary)
		}
	}
}

// TestCellSnapshotSections pins the per-cell envelope sections: a
// sharded run's snapshot records its cell count and per-cell dispatch
// attribution summing exactly to the global count; a same-C restore
// resumes that attribution (byte-identical re-save, which the snapshot
// auditor also enforces every period); a monolith snapshot carries no
// cell sections at all.
func TestCellSnapshotSections(t *testing.T) {
	decode := func(ckpt []byte) simState {
		f, err := snapshot.Read(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		var st simState
		if err := json.Unmarshal(f.State, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	save := func(cells int, steps int) []byte {
		m, err := New(cellCfg(cells, 3, nil))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if ok, err := m.Step(); err != nil || !ok {
				t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
			}
		}
		var ckpt bytes.Buffer
		if err := m.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		return ckpt.Bytes()
	}

	st := decode(save(6, 200))
	if st.Cells != 6 || len(st.CellDispatched) != 6 {
		t.Fatalf("sharded snapshot sections: cells=%d, dispatched len %d, want 6/6", st.Cells, len(st.CellDispatched))
	}
	var sum uint64
	for _, d := range st.CellDispatched {
		sum += d
	}
	if sum != st.Engine.Dispatched {
		t.Fatalf("per-cell dispatch attribution sums to %d, global is %d", sum, st.Engine.Dispatched)
	}

	mono := decode(save(1, 200))
	if mono.Cells != 0 || mono.CellDispatched != nil {
		t.Fatalf("monolith snapshot carries cell sections: cells=%d, dispatched=%v", mono.Cells, mono.CellDispatched)
	}

	// Same-C restore resumes attribution: restore the sharded checkpoint
	// and re-save; the per-cell sections must match bit-for-bit.
	m2, err := Restore(cellCfg(6, 3, nil), bytes.NewReader(save(6, 200)))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m2.Save(&again); err != nil {
		t.Fatal(err)
	}
	st2 := decode(again.Bytes())
	if st2.Cells != st.Cells || len(st2.CellDispatched) != len(st.CellDispatched) {
		t.Fatalf("re-saved sections drifted: %+v vs %+v", st2.Cells, st.Cells)
	}
	for i := range st.CellDispatched {
		if st2.CellDispatched[i] != st.CellDispatched[i] {
			t.Fatalf("cell %d dispatch attribution drifted: %d vs %d", i, st2.CellDispatched[i], st.CellDispatched[i])
		}
	}
}

// TestShapeOverflowCounterStable pins core.sparse_shape_overflow as part
// of the "same decisions" contract: the sharded run and the monolith count
// the same overflows, and enabling the audit (whose SparseCheck builds its
// own sparse matrices) must not inflate the run's counter, because the
// check detaches the observer while it works.
func TestShapeOverflowCounterStable(t *testing.T) {
	run := func(cells int, mode audit.Mode) int64 {
		d := policy.NewDynamic()
		d.Opts.CandidateK = 1 // tiny budget: overflow is routine
		cfg := cellCfg(cells, 3, nil)
		cfg.Placer = d
		cfg.Obs = obs.New()
		cfg.Audit = mode
		if _, err := Run(cfg); err != nil {
			t.Fatalf("cells=%d audit=%v: %v", cells, mode, err)
		}
		return cfg.Obs.Counter("core.sparse_shape_overflow").Value()
	}
	base := run(3, audit.Off)
	if base == 0 {
		t.Fatal("scenario produced no shape overflows; tighten CandidateK")
	}
	if audited := run(3, audit.Event); audited != base {
		t.Fatalf("audit inflated the overflow counter: %d with audit, %d without", audited, base)
	}
	if mono := run(1, audit.Off); mono != base {
		t.Fatalf("overflow counter differs across cell counts: monolith %d, cells %d", mono, base)
	}
}

// TestCellConfigValidation pins the Config.Cells rejection rules at the
// sim API layer.
func TestCellConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cells int
		ok    bool
	}{{-1, false}, {0, true}, {1, true}, {6, true}, {7, false}} {
		cfg := Config{DC: smallFleet(), Placer: policy.NewDynamic(), Requests: reqs(2, 10, 100), Cells: tc.cells}
		_, err := New(cfg)
		if tc.ok && err != nil {
			t.Errorf("Cells=%d rejected: %v", tc.cells, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Cells=%d accepted (fleet is %d PMs)", tc.cells, smallFleet().Size())
		}
	}
}

// FuzzCellOrchestrator is the randomized cell-differential: the fuzzer
// picks the workload shape, failure seed, cell count, a checkpoint
// boundary, and a (possibly different) restore cell count; the harness
// runs the monolith reference, runs the sharded world, crashes it at
// the boundary, re-shards it into the second cell count, and demands
// the stitched canonical trace and final Result match the reference
// bit-exactly. Arrivals, departures, failures, re-queues, migration
// holds, and control ticks all flow through whatever cell layout the
// bytes chose.
func FuzzCellOrchestrator(f *testing.F) {
	f.Add(int64(0), int64(1), uint64(2), uint64(3), uint64(1))
	f.Add(int64(1), int64(3), uint64(6), uint64(97), uint64(3))
	f.Add(int64(2), int64(5), uint64(3), uint64(211), uint64(6))
	f.Add(int64(7), int64(2), uint64(5), uint64(50), uint64(2))
	f.Add(int64(12), int64(8), uint64(4), uint64(500), uint64(1))

	f.Fuzz(func(t *testing.T, variant, failSeed int64, cellPick, stopPick, resharPick uint64) {
		fleetSize := smallFleet().Size()
		cellsA := 2 + int(cellPick%uint64(fleetSize-1))  // 2..fleet
		cellsB := 1 + int(resharPick%uint64(fleetSize))  // 1..fleet
		load := fragmentingTrace(20 + int(variant&3)*10) // 20..50 requests
		mk := func(cells int, trace *bytes.Buffer) Config {
			cfg := cellCfg(cells, 1+(failSeed&0xffff)%1000, trace)
			cfg.Requests = load
			cfg.TimedMigrations = variant&4 != 0
			if variant&8 != 0 {
				cfg.Spare = nil
			}
			return cfg
		}

		var refTrace bytes.Buffer
		ref, err := New(mk(1, &refTrace))
		if err != nil {
			t.Fatal(err)
		}
		resA := runToEnd(t, ref)
		total := ref.Dispatched()
		if total < 2 {
			t.Skip("degenerate run")
		}
		refCanon := canon(t, refTrace.Bytes())

		// Sharded world, crashed at the chosen boundary.
		stop := 1 + stopPick%(total-1)
		var prefix bytes.Buffer
		m, err := New(mk(cellsA, &prefix))
		if err != nil {
			t.Fatal(err)
		}
		for m.Dispatched() < stop {
			if ok, err := m.Step(); err != nil || !ok {
				t.Fatalf("cells=%d step: ok=%v err=%v", cellsA, ok, err)
			}
		}
		var ckpt bytes.Buffer
		if err := m.Save(&ckpt); err != nil {
			t.Fatalf("cells=%d save at %d: %v", cellsA, stop, err)
		}

		// Re-sharded resume.
		var tail bytes.Buffer
		m2, err := Restore(mk(cellsB, &tail), bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatalf("restore C=%d -> C=%d at %d/%d: %v", cellsA, cellsB, stop, total, err)
		}
		resB := runToEnd(t, m2)

		combined := append(canon(t, prefix.Bytes()), canon(t, tail.Bytes())...)
		if !bytes.Equal(combined, refCanon) {
			at, a, b := diffContext(refCanon, combined)
			t.Fatalf("variant %d C=%d->%d crash at %d/%d: trace diverges at byte %d:\nmonolith: ...%s\nstitched: ...%s",
				variant, cellsA, cellsB, stop, total, at, a, b)
		}
		if resA.Summary != resB.Summary {
			t.Fatalf("variant %d C=%d->%d crash at %d: summaries differ:\nmonolith: %+v\nstitched: %+v",
				variant, cellsA, cellsB, stop, resA.Summary, resB.Summary)
		}
	})
}

// TestCellFleetScaledSmoke runs a moderately larger sharded fleet
// (64 PMs, 16 cells, balanced-with-remainder partition at 17 cells) to
// catch range arithmetic that a 6-PM fleet cannot, comparing against
// the monolith end to end.
func TestCellFleetScaledSmoke(t *testing.T) {
	mk := func(cells int, trace *bytes.Buffer) Config {
		sc := spare.DefaultConfig()
		cfg := Config{
			DC:       cluster.TableIIFleetScaled(64),
			Placer:   policy.NewDynamic(),
			Requests: fragmentingTrace(120),
			Spare:    &sc,
			Failures: failure.Config{
				MTBF: 20000, RepairTime: 120,
				ReliabilityDecay: 0.9, MinReliability: 0.2, Seed: 2,
			},
			WarmStart: 4,
			Cells:     cells,
		}
		if trace != nil {
			cfg.Obs = obs.NewTracing(trace)
		}
		return cfg
	}
	var ref bytes.Buffer
	if _, err := Run(mk(1, &ref)); err != nil {
		t.Fatal(err)
	}
	refCanon := canon(t, ref.Bytes())
	for _, cells := range []int{16, 17, 64} {
		var trace bytes.Buffer
		if _, err := Run(mk(cells, &trace)); err != nil {
			t.Fatalf("cells=%d: %v", cells, err)
		}
		if !bytes.Equal(canon(t, trace.Bytes()), refCanon) {
			at, a, b := diffContext(refCanon, canon(t, trace.Bytes()))
			t.Fatalf("cells=%d: trace diverges at byte %d:\nmonolith: ...%s\ncells:    ...%s", cells, at, a, b)
		}
	}
}
