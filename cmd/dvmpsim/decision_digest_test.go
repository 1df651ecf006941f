package main

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestDecisionLogDigest pins the decision stream the way TestGoldenTrace
// pins the run trace, but by digest: the canonical decision logs of the
// seed-1 week on the 100-PM fleet (~2.8 MB) and of the golden-trace fixture
// are too big to check in, so each is held to the FNV-64a of its canonical
// form. The week's run trace is pinned alongside. A changed digest means a
// changed record, field or encoding; review it, then bless the new value.
// The week row's two digests are also TestRunDigests' seed-1 -spare row's
// trace and decisions pins, so a re-bless moves both.
//
// The two decision digests were last re-blessed when the queue drain
// stopped asking the placer about VMs no changed PM can host: only the
// drains' futile "pm":-1 records are gone (199 of the week's 13,719), every
// other record is unchanged and in order, and the run digest did not move.
func TestDecisionLogDigest(t *testing.T) {
	dir := t.TempDir()
	rows := []struct {
		name            string
		args            []string
		decisions, runs uint64 // 0: not pinned
	}{
		{"week-seed1-100pm", []string{"-scheme", "dynamic", "-spare", "-seed", "1"}, 0x879f41fdd3580898, 0xb34471451c5e32b},
		{"golden-fixture", traceArgs(filepath.Join(dir, "golden.jsonl")), 0xe8992b250b54b4c, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dec := filepath.Join(dir, row.name+".dec.jsonl")
			args := append(append([]string{}, row.args...), "-decisions", dec)
			runTrace := ""
			if row.runs != 0 {
				runTrace = filepath.Join(dir, row.name+".run.jsonl")
				args = append(args, "-trace", runTrace)
			}
			var sb strings.Builder
			if err := run(args, &sb); err != nil {
				t.Fatal(err)
			}
			if got := canonicalDigest(t, dec); got != row.decisions {
				t.Errorf("decision log digest %#x, want %#x", got, row.decisions)
			}
			if row.name == "golden-fixture" {
				// The same log as an earlier build wrote it, in JSONL.
				if got := canonicalDigest(t, filepath.Join("testdata", "golden_decisions.jsonl")); got != row.decisions {
					t.Errorf("checked-in JSONL log digest %#x, want %#x", got, row.decisions)
				}
			}
			if runTrace != "" {
				if got := canonicalDigest(t, runTrace); got != row.runs {
					t.Errorf("run trace digest %#x, want %#x", got, row.runs)
				}
			}
		})
	}
}

// canonicalDigest is the FNV-64a of the file at path after obs.Canonicalize.
func canonicalDigest(t *testing.T, path string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatalf("%s is empty", path)
	}
	h := fnv.New64a()
	if err := obs.Canonicalize(bytes.NewReader(raw), h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}
