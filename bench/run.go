package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// options are the knobs of one workload's measurement.
type options struct {
	seed    int64
	seconds float64 // how long the timed runs go on for
	trace   bool    // also take the traced run and report per-layer metrics
	smoke   bool    // truncated traces, two timed runs
	outDir  string  // span files and result files land here
}

// metric is one reported number. EquivalenceOnly marks a parallel-speedup
// ratio taken on a one-CPU host: it shows the variants agree, it does not
// measure them.
type metric struct {
	Value           float64 `json:"value"`
	Unit            string  `json:"unit"`
	EquivalenceOnly bool    `json:"equivalence_only,omitempty"`
}

// metricSet keeps metrics in emission order and refuses a second value
// for a name: every metric is emitted exactly once per workload.
type metricSet struct {
	Names []string
	M     map[string]metric
}

func (s *metricSet) put(name, unit string, v float64) {
	if s.M == nil {
		s.M = map[string]metric{}
	}
	if _, dup := s.M[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	s.Names = append(s.Names, name)
	s.M[name] = metric{Value: v, Unit: unit}
}

// result is one workload's result file.
type result struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     int64   `json:"seed"`
	Smoke    bool    `json:"smoke,omitempty"`
	Host     host    `json:"host"`
	Claim    *string `json:"claim"` // the benchmark itself claims no gain: always null

	Correct  bool     `json:"correct"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Problems []string `json:"problems,omitempty"`

	Fingerprint string            `json:"fingerprint"`
	WallRunsS   []float64         `json:"wall_runs_s"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`

	endToEnd, perLayer metricSet
}

// bench is one workload's measurement in progress.
type bench struct {
	w   spec
	o   options
	res *result

	ref    map[int]uint64 // per input, the fingerprint every run of it must reproduce
	timed  []rep          // the timed runs, cycle by cycle: run i is of input i % inputs
	inputs int
	setups []float64
	ld     layerData
}

func (b *bench) problem(format string, args ...any) {
	b.res.Problems = append(b.res.Problems, fmt.Sprintf(format, args...))
	b.res.Correct = false
}

// account books one finished run of one input. Its requests count as
// attempted; they count as failed when the run errored or its outputs
// differ from the fingerprint of the input's first run, and otherwise only
// the requests that never completed do.
func (b *bench) account(what string, input int, r rep, err error) bool {
	ops := r.ops
	if ops == 0 {
		ops = 1
	}
	b.res.Ops += ops
	ref, hasRef := b.ref[input]
	switch {
	case err != nil:
		b.problem("%s: %v", what, err)
	case hasRef && r.fp != ref:
		b.problem("%s: fingerprint %016x differs from the reference %016x", what, r.fp, ref)
	default:
		if !hasRef {
			b.ref[input] = r.fp
			if input == 0 {
				b.res.Fingerprint = fmt.Sprintf("%016x", r.fp)
			}
		}
		if r.completed < r.ops {
			b.problem("%s: %d of %d requests not completed", what, r.ops-r.completed, r.ops)
		}
		b.res.Failed += r.ops - r.completed
		b.setups = append(b.setups, r.setupS)
		return true
	}
	b.res.Failed += ops
	return false
}

// runTimed takes the inputs in turn, one run each, in whole cycles: the
// number of cycles that comes closest to the time asked for, at least one
// (-smoke takes exactly one). Only whole cycles keep the set of inputs
// behind every metric the same from one invocation to the next.
func (b *bench) runTimed(one func(input int) (rep, error)) {
	start := time.Now()
	for cycle := 0; ; cycle++ {
		if elapsed := time.Since(start).Seconds(); cycle > 0 &&
			(b.o.smoke || elapsed+elapsed/float64(cycle)/2 > b.o.seconds) {
			break
		}
		for i := 0; i < b.inputs; i++ {
			r, err := one(i)
			if !b.account(fmt.Sprintf("timed run %d of input %d", cycle+1, i), i, r, err) {
				return
			}
			b.timed = append(b.timed, r)
			b.res.WallRunsS = append(b.res.WallRunsS, r.wallS)
		}
	}
}

// ofInput is f over the timed runs of one input, one value a cycle.
func (b *bench) ofInput(input int, f func(rep) float64) []float64 {
	var out []float64
	for i := input; i < len(b.timed); i += b.inputs {
		out = append(out, f(b.timed[i]))
	}
	return out
}

// mean is a metric's reduction over the timed runs: per input the median of
// its runs, then the mean over the inputs.
func (b *bench) mean(f func(rep) float64) float64 {
	sum := 0.0
	for i := 0; i < b.inputs; i++ {
		sum += stats.Median(b.ofInput(i, f))
	}
	return sum / float64(b.inputs)
}

func wallOf(r rep) float64 { return r.wallS }

// endToEnd reduces the timed runs to the end-to-end metrics: the mean over
// the inputs of each one's median host cost and of its simulated statistics
// (identical on every run of an input, or the fingerprint check has already
// failed the workload). Set-up is much the same work for every input, so
// setup_s is the median of every run's. peakRSS is the caller's sample from
// before any traced or verify run could raise it.
func (b *bench) endToEnd(peakRSS float64) bool {
	if len(b.timed) == 0 || len(b.timed)%b.inputs != 0 {
		return false
	}
	e := &b.res.endToEnd
	queued := b.mean(func(r rep) float64 { return r.queuedPct })
	e.put("wall_s", "s", b.mean(wallOf))
	e.put("cpu_s", "s", b.mean(func(r rep) float64 { return r.cpuS }))
	e.put("setup_s", "s", stats.Median(b.setups))
	e.put("alloc_mb", "MB", b.mean(func(r rep) float64 { return r.allocMB }))
	e.put("allocs_k", "k", b.mean(func(r rep) float64 { return r.allocsK }))
	e.put("energy_kwh", "kWh", b.mean(func(r rep) float64 { return r.energyKWh }))
	e.put("served_pct", "%", 100-queued)

	ld := &b.ld
	ld.reps, ld.cycles = len(b.timed), len(b.timed)/b.inputs
	ld.wallMean, ld.wallInput0 = e.M["wall_s"].Value, stats.Median(b.ofInput(0, wallOf))
	// What the host adds from run to run shows where an input repeats: each
	// run's wall as a share of its input's median. One cycle repeats nothing
	// and leaves the ratio 0, which -compare reads as not measured.
	if ld.cycles > 1 {
		var rel []float64
		for i := 0; i < b.inputs; i++ {
			walls := b.ofInput(i, wallOf)
			for _, v := range walls {
				rel = append(rel, v/stats.Median(walls))
			}
		}
		q1, q2, q3 := quartiles(rel)
		ld.wallIQR = ratio(q3-q1, q2)
	}
	q1, q2, q3 := quartiles(b.setups)
	ld.setupIQR = ratio(q3-q1, q2)
	ld.genS = b.mean(func(r rep) float64 { return r.genS })
	ld.toReqS = b.mean(func(r rep) float64 { return r.toReqS })
	ld.fleetS = b.mean(func(r rep) float64 { return r.fleetS })
	ld.requests, ld.peakRSS = b.timed[0].ops, peakRSS
	ld.queuedPct = queued
	ld.migrations = b.mean(func(r rep) float64 { return r.migrations })
	ld.totalEnergyKWh = b.mean(func(r rep) float64 { return r.totalEnergyKWh })
	return true
}

// runSim measures a single-run workload: timed runs over every input, then
// on input 0 (with -trace) the traced run and the per-layer comparisons,
// then verification.
func (b *bench) runSim() {
	w, o := b.w, b.o
	// run performs and books one run of input 0, the invocation's own seed:
	// the input of every run outside the timed cycles.
	run := func(what string, v variant) (rep, bool) {
		r, err := w.once(o.seed, o.smoke, v)
		return r, b.account(what, 0, r, err)
	}
	// best runs a variant twice and keeps the faster run: each comparison
	// below rests on it alone, not on a median of many. A traced variant
	// gets a fresh recorder per attempt.
	best := func(what string, v variant) (rep, bool) {
		var out rep
		for i := 0; i < 2; i++ {
			if v.rec != nil {
				v.rec = newRecorder(b.timed[0].events)
			}
			r, ok := run(what, v)
			if !ok {
				return r, false
			}
			if i == 0 || r.wallS < out.wallS {
				out = r
			}
		}
		return out, true
	}

	// One warm-up run off the clock, so the timed runs start with the heap
	// grown and the caches filled.
	if !o.smoke {
		if _, ok := run("warm-up run", variant{}); !ok {
			return
		}
	}
	b.runTimed(func(i int) (rep, error) { return w.once(inputSeed(o.seed, i), o.smoke, variant{}) })
	if !b.endToEnd(peakRSSMB()) {
		return
	}
	ld := &b.ld

	if o.trace {
		tr, ok := best("traced run", variant{rec: &recorder{}})
		if !ok {
			return
		}
		rec := tr.timed.rec
		if err := rec.writeJSONL(filepath.Join(o.outDir, w.name+".spans.jsonl")); err != nil {
			b.problem("span file: %v", err)
		}
		ld.spans, ld.timed, ld.tracedWall = rec.stats(), tr.timed, tr.wallS
		ld.peakPending, ld.observers = tr.peakPending, []*obs.Observer{tr.observer}
		ld.churnNS = engineChurn(tr.peakPending, int(tr.events))
		if tr.trace != nil {
			ld.traceEvents, ld.traceBytes = tr.observer.Trace.Events(), tr.trace.n
			ld.decisionRecords, ld.decisionBytes = tr.observer.Decisions.Events(), tr.decision.n
			// The same week without the obs layer: what observing costs.
			if plain, ok := best("unobserved run", variant{plain: true}); ok {
				ld.plainWall = plain.wallS
			}
		}
		if w.kwRatio {
			n := runtime.NumCPU()
			k1, ok1 := best("KernelWorkers=1 run", variant{kernelWorkers: 1})
			kn, okn := best(fmt.Sprintf("KernelWorkers=%d run", n), variant{kernelWorkers: n})
			if ok1 && okn {
				ld.kwRatio = ratio(kn.wallS, k1.wallS)
			}
		}
		if w.cellsRatio {
			if c4, ok := best("Cells=4 run", variant{cells: 4}); ok {
				ld.c4Ratio = ratio(c4.wallS, ld.wallInput0)
			}
		}
	}

	if ver, ok := run("verify run (checkpoint at the mid-run event, restore, finish)", variant{splitAt: b.timed[0].events / 2}); ok {
		ld.saveMs, ld.restoreMs, ld.snapKB = ver.saveMs, ver.restoreMs, ver.snapKB
	}
	if w.alsoSparseK > 0 {
		run(fmt.Sprintf("CandidateK=%d run against the dense reference", w.alsoSparseK), variant{candidateK: w.alsoSparseK})
	}
	// Paper-level sanity (Section IV): the spare pool is sized for a 5%
	// QoS target and lands the week at 2.6-5.5% queued over seeds 1-90
	// (13-15% without spares); 7% means the controller stopped working.
	for i, r := range b.timed[:b.inputs] {
		if !o.smoke && w.maxQueuedPct > 0 && r.queuedPct > w.maxQueuedPct {
			b.problem("input %d: queued %.2f%% of requests with spares on, above %.0f%%", i, r.queuedPct, w.maxQueuedPct)
			b.res.Failed += r.ops
		}
	}
}

// runSweep measures compare-sweep. The Workers=1 pass over input 0 is the
// warm-up, the serial baseline, the registry source and the byte-identity
// reference in one.
func (b *bench) runSweep() {
	w, o := b.w, b.o
	// GOMAXPROCS can be set above nproc; a sweep's wall-clock would then
	// measure time-slicing, not the runner.
	workers := sweepWorkers()
	if workers > runtime.NumCPU() {
		b.problem("Workers = %d exceeds nproc = %d", workers, runtime.NumCPU())
		return
	}
	// RunSweep cannot be entered, so the sweep's span file holds the root
	// span alone: the traced Workers=1 pass, set-up included.
	var rec *recorder
	if o.trace {
		rec = newRecorder(0)
	}
	root := rec.begin(spanRun)
	serial, refJSON, observers, report, err := w.sweepOnce(o.seed, o.smoke, 1, o.trace)
	rec.end(root)
	if !b.account("Workers=1 sweep", 0, serial, err) {
		return
	}
	if rec != nil {
		if err := rec.writeJSONL(filepath.Join(o.outDir, w.name+".spans.jsonl")); err != nil {
			b.problem("span file: %v", err)
		}
	}
	// Paper-level sanity (Figure 5): over a sweep's seeds the dynamic
	// scheme, spares and all, uses less energy than either static
	// baseline. Asserted on the cross-seed means: on a single seed the
	// spare pool's idle power can outweigh the consolidation saving
	// (seeds 23 and 28 of the first 60), the means have never been close.
	// The paper-level checks need the paper's workload, so -smoke's 300
	// jobs skip them.
	sane := func(report *exp.SweepReport) error {
		mean := map[string]float64{}
		for _, a := range report.Aggregates {
			mean[a.Scheme] = a.WeekEnergyKWh.Mean
		}
		for _, static := range []string{"first-fit", "best-fit"} {
			if !o.smoke && mean["dynamic"] >= mean[static] {
				return fmt.Errorf("dynamic used %.1f kWh on average, not below %s at %.1f kWh", mean["dynamic"], static, mean[static])
			}
		}
		return nil
	}
	b.runTimed(func(i int) (rep, error) {
		r, out, _, report, err := w.sweepOnce(inputSeed(o.seed, i), o.smoke, workers, false)
		if err == nil && i == 0 && !bytes.Equal(out, refJSON) {
			err = fmt.Errorf("report JSON at Workers=%d is not byte-identical to Workers=1", workers)
		}
		if err == nil {
			err = sane(report)
		}
		return r, err
	})
	if !b.endToEnd(peakRSSMB()) {
		return
	}
	ld := &b.ld
	ld.observers = observers
	ld.expRuns, ld.expWorkers, ld.serialWall = len(report.Runs), workers, serial.wallS
}

// measure runs one workload's whole protocol and reduces it to metrics.
func measure(w spec, o options) *bench {
	b := &bench{w: w, o: o, res: &result{
		Workload: w.name, Why: w.why, Seed: o.seed, Smoke: o.smoke, Host: hostRecord(), Correct: true,
	}, ref: map[int]uint64{}, inputs: w.inputCount(o.smoke)}
	if w.sweep {
		b.runSweep()
	} else {
		b.runSim()
	}
	b.res.EndToEnd = b.res.endToEnd.M
	if o.trace {
		b.ld.perLayer(&b.res.perLayer)
		b.res.PerLayer = b.res.perLayer.M
	}
	return b
}

// runWorkload measures one workload and writes its result file (the span
// file is written by the traced run itself).
func runWorkload(w spec, o options) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	res := measure(w, o).res
	return res, writeJSON(filepath.Join(o.outDir, w.name+".json"), res)
}

// engineChurn times sim.Engine alone at the run's scale: resident
// self-rescheduling events, total dispatches, pseudo-random delays. It
// bounds what sim.self_s could gain from event-queue work.
func engineChurn(resident, total int) float64 {
	if total == 0 {
		return 0
	}
	var e sim.Engine
	x := uint64(0x243F6A8885A308D3)
	delay := func() float64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%1024)/16 + 0.001
	}
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired+e.Pending() < total {
			e.ScheduleAfter(delay(), fire)
		}
	}
	for i := 0; i < resident && i < total; i++ {
		e.ScheduleAfter(delay(), fire)
	}
	t := time.Now()
	e.Run()
	return float64(time.Since(t).Nanoseconds()) / float64(fired)
}
