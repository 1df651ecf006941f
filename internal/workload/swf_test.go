package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const sampleSWF = `; Computer: test cluster
; Version: 2.2
1 0 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1
2 100 0 60 1 -1 -1 1 -1 262144 5 10 20 1 1 1 -1 -1
3 200 0 -1 2 -1 1048576 2 3600 -1 0 10 20 1 1 1 -1 -1
`

func TestParseSWF(t *testing.T) {
	jobs, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}

	j := jobs[0]
	if j.ID != 1 || j.Submit != 0 || j.RunTime != 3600 || j.Cores != 4 {
		t.Errorf("job 1 = %+v", j)
	}
	// 524288 KB/core * 4 cores = 2 GB total.
	if math.Abs(j.MemoryGB-2) > 1e-9 {
		t.Errorf("job 1 mem = %g, want 2", j.MemoryGB)
	}
	if j.EstimatedRunTime != 7200 || j.Status != 1 {
		t.Errorf("job 1 est/status = %g/%d", j.EstimatedRunTime, j.Status)
	}

	// Job 2: used memory missing -> requested memory (262144 KB = 0.25 GB),
	// requested time missing -> runtime.
	j = jobs[1]
	if math.Abs(j.MemoryGB-0.25) > 1e-9 {
		t.Errorf("job 2 mem = %g, want 0.25", j.MemoryGB)
	}
	if j.EstimatedRunTime != 60 {
		t.Errorf("job 2 est = %g, want runtime fallback 60", j.EstimatedRunTime)
	}
	if j.Status != StatusCancelled {
		t.Errorf("job 2 status = %d", j.Status)
	}

	// Job 3: runtime missing -> 0.
	if jobs[2].RunTime != 0 {
		t.Errorf("job 3 runtime = %g, want 0", jobs[2].RunTime)
	}
}

func TestParseSWFErrors(t *testing.T) {
	good := "1 0 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n"
	cases := map[string]struct {
		in   string
		want string // substring the positional error must contain
	}{
		"short line":  {"1 0 5\n", "line 1 has 3 fields"},
		"long line":   {"1 0 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1 99\n", "line 1 has 19 fields"},
		"bad number":  {"x 0 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n", "line 1 field 1"},
		"negative id": {"-2 0 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n", "negative job ID"},
		"negative submit": {"1 -7 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n",
			"line 1 field 2: negative submit time -7"},
		"negative runtime": {"1 0 5 -3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n",
			"line 1 field 4: negative run time -3600"},
		"negative processors": {"1 0 5 3600 -4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n",
			"line 1 field 5: negative processor count -4"},
		"negative used memory": {"1 0 5 3600 4 -1 -524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n",
			"line 1 field 7: negative used memory"},
		"negative requested time": {"1 0 5 3600 4 -1 524288 4 -7200 -1 1 10 20 1 1 1 -1 -1\n",
			"line 1 field 9: negative requested time"},
		"negative requested memory": {"1 0 5 3600 4 -1 524288 4 7200 -9 1 10 20 1 1 1 -1 -1\n",
			"line 1 field 10: negative requested memory"},
		"id past 2^53": {"1e20 0 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n",
			"line 1 field 1: 1e+20 is out of range"},
		"submit past 2^53": {"1 1e19 5 3600 4 -1 524288 4 7200 -1 1 10 20 1 1 1 -1 -1\n",
			"line 1 field 2: 1e+19 is out of range"},
		"NaN status": {"1 0 5 3600 4 -1 524288 4 7200 -1 NaN 10 20 1 1 1 -1 -1\n",
			"line 1 field 11: NaN is out of range"},
		"duplicate job id": {good + "2 1 5 60 1 -1 -1 1 -1 -1 1 10 20 1 1 1 -1 -1\n" +
			"1 2 5 60 1 -1 -1 1 -1 -1 1 10 20 1 1 1 -1 -1\n",
			"line 3: duplicate job ID 1 (first at line 1)"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ParseSWF(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("parse accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestParseSWFMissingMarkersStillNormalize pins that hardening the
// parser kept the -1 convention intact: every consumed field may still
// be exactly -1 (WriteSWF emits -1 for unmodeled fields, so the
// round-trip depends on it).
func TestParseSWFMissingMarkersStillNormalize(t *testing.T) {
	jobs, err := ParseSWF(strings.NewReader("7 -1 -1 -1 -1 -1 -1 -1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"))
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	if j.Submit != 0 || j.RunTime != 0 || j.Cores != 0 || j.EstimatedRunTime != 0 || j.MemoryGB != 0 {
		t.Errorf("missing markers not normalized: %+v", j)
	}
}

func TestParseSWFEmptyAndComments(t *testing.T) {
	jobs, err := ParseSWF(strings.NewReader("; only comments\n\n;\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("jobs = %d, want 0", len(jobs))
	}
}

func TestSWFRoundTrip(t *testing.T) {
	orig := []Job{
		{ID: 1, Submit: 0, RunTime: 3600, EstimatedRunTime: 7200, Cores: 4, MemoryGB: 2, Status: 1},
		{ID: 2, Submit: 50, RunTime: 60, EstimatedRunTime: 60, Cores: 1, MemoryGB: 0.25, Status: 5},
	}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig, "synthetic trace\nline two"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "; synthetic trace\n; line two\n") {
		t.Errorf("header = %q", buf.String()[:40])
	}
	back, err := ParseSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip jobs = %d", len(back))
	}
	for i := range orig {
		a, b := orig[i], back[i]
		if a.ID != b.ID || a.Submit != b.Submit || a.RunTime != b.RunTime ||
			a.Cores != b.Cores || a.Status != b.Status ||
			math.Abs(a.MemoryGB-b.MemoryGB) > 1e-6 ||
			a.EstimatedRunTime != b.EstimatedRunTime {
			t.Errorf("job %d: %+v != %+v", i, a, b)
		}
	}
}

func TestWriteSWFNoHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSWF(&buf, []Job{{ID: 1, Cores: 1, MemoryGB: 1, Status: 1}}, ""); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(buf.String(), ";") {
		t.Error("unexpected header")
	}
}

func TestGeneratedTraceRoundTripsThroughSWF(t *testing.T) {
	cfg := DefaultWeekConfig(3)
	cfg.DailyJobs = []int{40, 60}
	jobs := MustGenerate(cfg)
	var buf bytes.Buffer
	if err := WriteSWF(&buf, jobs, "gen"); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip lost jobs: %d -> %d", len(jobs), len(back))
	}
	for i := range jobs {
		if int(jobs[i].Submit) != int(back[i].Submit) || jobs[i].Cores != back[i].Cores {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, jobs[i], back[i])
		}
		if math.Abs(jobs[i].MemoryGB-back[i].MemoryGB) > 1e-5 {
			t.Fatalf("job %d memory drift: %g vs %g", i, jobs[i].MemoryGB, back[i].MemoryGB)
		}
	}
}
