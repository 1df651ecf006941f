package workload

import (
	"bytes"
	"cmp"
	"slices"
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

// FuzzSortBySubmit holds SortBySubmit to a stable sort on (Submit, ID):
// each three input bytes make one job whose Submit and ID come from small
// ranges, so ties on Submit, on ID and on both are common, and whose
// RunTime records its input position, so the order among equal pairs is
// checked too.
func FuzzSortBySubmit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0})      // sorted
	f.Add([]byte{3, 4, 0, 2, 3, 0, 1, 2, 0, 0, 1, 0})      // reversed
	f.Add([]byte{5, 1, 0, 5, 1, 0, 2, 1, 0, 5, 0, 0})      // ties on both keys
	f.Add([]byte{9, 2, 0, 9, 2, 1, 1, 7, 0, 9, 2, 0})      // duplicate IDs
	f.Add([]byte{255, 255, 255, 0, 0, 0, 128, 7, 3, 0, 0}) // a ragged tail

	f.Fuzz(func(t *testing.T, in []byte) {
		jobs := make([]Job, 0, len(in)/3)
		for i := 0; i+3 <= len(in); i += 3 {
			jobs = append(jobs, Job{
				ID:      int(in[i+1] % 8),
				Submit:  float64(in[i]%16) * 0.5,
				RunTime: float64(len(jobs)),
				Cores:   int(in[i+2]),
			})
		}
		want := slices.Clone(jobs)
		slices.SortStableFunc(want, func(a, b Job) int {
			if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		SortBySubmit(jobs)
		if !slices.Equal(jobs, want) {
			t.Fatalf("SortBySubmit order\n%v\nwant the stable order\n%v", jobs, want)
		}
	})
}
