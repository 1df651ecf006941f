package sim

import (
	"bytes"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/spare"
	"repro/internal/vector"
	"repro/internal/workload"
)

// mixedLoad builds a workload with varied shapes and bursts so migrations,
// boots, queueing, and spare decisions all occur.
func mixedLoad() []workload.Request {
	var out []workload.Request
	id := 0
	add := func(at, run, cpu, mem float64) {
		id++
		out = append(out, workload.Request{
			JobID: id, Submit: at,
			CPUCores: cpu, MemoryGB: mem,
			EstimatedRunTime: run, RunTime: run,
		})
	}
	for i := 0; i < 40; i++ {
		at := float64(i) * 120
		add(at, 3000+float64(i%7)*500, 1, 0.5)
		if i%3 == 0 {
			add(at, 1500, 2, 1)
		}
		if i%5 == 0 {
			add(at+1, 6000, 1, 1) // same-second sibling exercises FIFO ties
		}
	}
	return out
}

// TestRunByteIdenticalTrace is the strongest determinism statement the
// simulator can make: two runs of an identical configuration — with
// failures, timed migrations, and the spare controller all active — must
// produce byte-identical canonical run traces, identical move lists, and
// identical summaries. Any hidden map iteration or unsorted slice in an event
// handler shows up here as a trace diff.
//
// The canonical trace is also held to an FNV-64a constant, so the run is
// pinned across commits, not only within one tree. It is the one such pin
// in which every event kind fires: its 301 dispatches are 62 arrivals, 28
// control ticks, 74 creations, 62 departures, 19 boots, 7 shutdowns, 14
// failures, 14 repairs and 21 migration cutovers. A changed digest means a
// changed event; review it, then bless the new value.
func TestRunByteIdenticalTrace(t *testing.T) {
	const wantDigest uint64 = 0xb8ed558a192da5f1
	run := func() (*Result, *bytes.Buffer) {
		var trace bytes.Buffer
		sc := spare.DefaultConfig()
		res, err := Run(Config{
			DC:       smallFleet(),
			Placer:   policy.NewDynamic(),
			Requests: mixedLoad(),
			Spare:    &sc,
			Failures: failure.Config{
				MTBF: 4e4, RepairTime: 5000, Seed: 11,
				ReliabilityDecay: 0.9, MinReliability: 0.5,
			},
			TimedMigrations: true,
			WarmStart:       2,
			Obs:             obs.NewTracing(&trace),
			Audit:           0, // exercised separately; keep this run lean
		})
		if err != nil {
			t.Fatal(err)
		}
		var canon bytes.Buffer
		if err := obs.Canonicalize(&trace, &canon); err != nil {
			t.Fatal(err)
		}
		return res, &canon
	}
	resA, traceA := run()
	resB, traceB := run()

	if !bytes.Equal(traceA.Bytes(), traceB.Bytes()) {
		a, b := traceA.Bytes(), traceB.Bytes()
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		at := 0
		for at < n && a[at] == b[at] {
			at++
		}
		lo := at - 120
		if lo < 0 {
			lo = 0
		}
		hi := at + 120
		if hi > n {
			hi = n
		}
		t.Fatalf("run traces diverge at byte %d:\nA: ...%s\nB: ...%s", at, a[lo:hi], b[lo:hi])
	}
	h := fnv.New64a()
	h.Write(traceA.Bytes())
	if got := h.Sum64(); got != wantDigest {
		t.Errorf("canonical trace digest %#x, want %#x", got, wantDigest)
	}
	if len(resA.Moves) != len(resB.Moves) {
		t.Fatalf("move counts differ: %d vs %d", len(resA.Moves), len(resB.Moves))
	}
	for i := range resA.Moves {
		if resA.Moves[i] != resB.Moves[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, resA.Moves[i], resB.Moves[i])
		}
	}
	if resA.Summary != resB.Summary {
		t.Fatalf("summaries differ:\nA: %+v\nB: %+v", resA.Summary, resB.Summary)
	}
	if len(resA.SparePlans) != len(resB.SparePlans) {
		t.Fatalf("spare plan counts differ: %d vs %d", len(resA.SparePlans), len(resB.SparePlans))
	}
	for i := range resA.SparePlans {
		if resA.SparePlans[i] != resB.SparePlans[i] {
			t.Fatalf("spare plan %d differs", i)
		}
	}
}

// TestMigratableVMsSorted asserts the explicit ordering contract
// Algorithm 1's tie-breaking depends on: migratable VMs come back sorted
// by ID no matter how placements are scattered across PMs.
func TestMigratableVMsSorted(t *testing.T) {
	dc := smallFleet()
	res, err := Run(Config{
		DC:       dc,
		Placer:   policy.NewDynamic(),
		Requests: mixedLoad()[:30],
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Mid-run ordering is covered by the audit fuzz harness; here assert
	// the invariant on a hand-scattered datacenter.
	dc2 := smallFleet()
	for _, pm := range dc2.PMs() {
		pm.SetState(cluster.PMOn)
	}
	ids := []int{9, 2, 14, 5, 1, 11}
	for i, id := range ids {
		vm := cluster.NewVM(cluster.VMID(id), vector.New(1, 0.5), 1000, 1000, 0)
		if err := dc2.PM(cluster.PMID(i % dc2.Size())).Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
	}
	vms := core.MigratableVMs(dc2)
	if len(vms) != len(ids) {
		t.Fatalf("got %d migratable VMs, want %d", len(vms), len(ids))
	}
	for i := 1; i < len(vms); i++ {
		if vms[i-1].ID >= vms[i].ID {
			t.Fatalf("MigratableVMs unsorted at %d: %d >= %d", i, vms[i-1].ID, vms[i].ID)
		}
	}
}
