package workload

import (
	"bytes"
	"strings"
	"testing"
)

// negativeField reports whether any of j's times, its core count or its
// memory is negative: no job ParseSWF accepts or Generate produces has one.
func negativeField(j Job) bool {
	return j.Submit < 0 || j.RunTime < 0 || j.EstimatedRunTime < 0 || j.Cores < 0 || j.MemoryGB < 0
}

// FuzzParseSWF drives the SWF parser with arbitrary input: it must never
// panic, and anything it accepts must survive a write/parse round trip
// with consistent record counts. Run with `go test -fuzz=FuzzParseSWF`
// for exploration; the seed corpus below runs in every `go test`.
func FuzzParseSWF(f *testing.F) {
	f.Add(sampleSWF)
	f.Add("")
	f.Add("; comment only\n")
	f.Add("1 0 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1")
	f.Add("not a trace at all")
	f.Add("1 2 3\n4 5 6\n")
	f.Add("-1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 0 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1 extra fields here\n")
	f.Add(strings.Repeat("9 ", 18) + "\n")

	f.Fuzz(func(t *testing.T, input string) {
		jobs, err := ParseSWF(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, j := range jobs {
			if negativeField(j) {
				t.Fatalf("negative field survived normalization: %+v", j)
			}
		}
		var buf bytes.Buffer
		if err := WriteSWF(&buf, jobs, ""); err != nil {
			t.Fatalf("write of parsed jobs failed: %v", err)
		}
		back, err := ParseSWF(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if len(back) != len(jobs) {
			t.Fatalf("round trip count %d != %d", len(back), len(jobs))
		}
	})
}
