package snapshot

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

func testMeta() Meta {
	return Meta{
		Scheme: "dynamic", FleetSize: 8, ClassDigest: "abc", Requests: 3,
		WorkloadDigest: "def", ControlPeriod: 3600, MeterBin: 3600,
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	type payload struct {
		N int     `json:"n"`
		X float64 `json:"x"`
	}
	var buf bytes.Buffer
	if err := Write(&buf, testMeta(), payload{N: 7, X: 0.1}); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Magic != Magic || f.Version != Version {
		t.Fatalf("envelope header mangled: %+v", f)
	}
	if err := f.CheckMeta(testMeta()); err != nil {
		t.Fatal(err)
	}
	want := testMeta()
	want.Scheme = "first-fit"
	if err := f.CheckMeta(want); err == nil {
		t.Fatal("CheckMeta accepted a different scheme")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	envelope := func(version int, rest string) string {
		return fmt.Sprintf(`{"magic":%q,"version":%d,"meta":{}%s}`, Magic, version, rest)
	}
	cases := map[string]string{
		"not json":      "hello world",
		"wrong magic":   `{"magic":"something-else","version":1,"meta":{},"state":{}}`,
		"zero version":  envelope(0, `,"state":{}`),
		"old version":   envelope(-3, `,"state":{}`),
		"future":        envelope(Version+1, `,"state":{}`),
		"missing state": envelope(Version, ""),
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted %q", name, in)
		}
	}
}

// TestReadRejectsVersion1: a checkpoint written before the energy meter's
// lazy state joined the envelope is refused, naming its version.
func TestReadRejectsVersion1(t *testing.T) {
	_, err := Read(strings.NewReader(fmt.Sprintf(`{"magic":%q,"version":1,"meta":{},"state":{}}`, Magic)))
	if err == nil || !strings.Contains(err.Error(), "format version 1 not supported") {
		t.Fatalf("version-1 envelope: error = %v, want it to name version 1", err)
	}
}

func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	state := map[string]float64{"t": 1.5}
	if err := Write(&a, testMeta(), state); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, testMeta(), state); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of identical state differ")
	}
}

func TestDigestsDistinguish(t *testing.T) {
	fast := cluster.FastClass
	slow := cluster.SlowClass
	dcA := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 2}, {Class: &slow, Count: 2}},
	})
	dcB := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 3}, {Class: &slow, Count: 1}},
	})
	if ClassDigest(dcA) == ClassDigest(dcB) {
		t.Fatal("different fleets digest equal")
	}
	// Same shape built twice (distinct class pointers) digests equal.
	fast2 := cluster.FastClass
	slow2 := cluster.SlowClass
	dcA2 := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast2, Count: 2}, {Class: &slow2, Count: 2}},
	})
	if ClassDigest(dcA) != ClassDigest(dcA2) {
		t.Fatal("identical fleets digest differently")
	}

	reqsA := []workload.Request{{JobID: 1, Submit: 0, CPUCores: 1, MemoryGB: 0.5, EstimatedRunTime: 10, RunTime: 9}}
	reqsB := []workload.Request{{JobID: 1, Submit: 0, CPUCores: 1, MemoryGB: 0.5, EstimatedRunTime: 10, RunTime: 8}}
	if WorkloadDigest(reqsA) == WorkloadDigest(reqsB) {
		t.Fatal("different workloads digest equal")
	}
	if WorkloadDigest(reqsA) != WorkloadDigest(append([]workload.Request(nil), reqsA...)) {
		t.Fatal("identical workloads digest differently")
	}
}
