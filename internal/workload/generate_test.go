package workload

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultWeekConfig(42)
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedChangesTrace(t *testing.T) {
	a := MustGenerate(DefaultWeekConfig(1))
	b := MustGenerate(DefaultWeekConfig(2))
	same := true
	for i := range a {
		if i < len(b) && a[i].Submit != b[i].Submit {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical submit streams")
	}
}

func TestGenerateWeekShape(t *testing.T) {
	jobs := MustGenerate(DefaultWeekConfig(1))
	if len(jobs) != 4574 {
		t.Fatalf("total jobs = %d, want 4574 (paper's filtered week)", len(jobs))
	}
	// Jobs per calendar day must match the configured counts exactly.
	perDay := make([]int, 7)
	for _, j := range jobs {
		d := int(j.Submit / 86400)
		if d < 0 || d > 6 {
			t.Fatalf("job submitted outside the week: %g", j.Submit)
		}
		perDay[d]++
	}
	want := []int{520, 705, 982, 770, 640, 480, 477}
	for d := range want {
		if perDay[d] != want[d] {
			t.Errorf("day %d jobs = %d, want %d", d, perDay[d], want[d])
		}
	}
}

func TestGenerateSortedAndNumbered(t *testing.T) {
	jobs := MustGenerate(DefaultWeekConfig(1))
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit < jobs[i-1].Submit {
			t.Fatal("trace not sorted by submit time")
		}
	}
	for i, j := range jobs {
		if j.ID != i+1 {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestGenerateFieldSanity(t *testing.T) {
	jobs := MustGenerate(DefaultWeekConfig(1))
	for _, j := range jobs {
		if negativeField(j) {
			t.Fatalf("negative field in generated job: %+v", j)
		}
		if j.RunTime < 1 {
			t.Fatalf("job %d runtime %g < 1", j.ID, j.RunTime)
		}
		if j.EstimatedRunTime < j.RunTime {
			t.Fatalf("job %d estimate below actual with zero noise", j.ID)
		}
		if j.Cores < 1 || j.Cores > 8 {
			t.Fatalf("job %d cores = %d", j.ID, j.Cores)
		}
		if j.Status != StatusCompleted {
			t.Fatalf("job %d status = %d", j.ID, j.Status)
		}
	}
}

func TestGenerateMemoryMostlyUnder1GB(t *testing.T) {
	s := Summarize(MustGenerate(DefaultWeekConfig(1)))
	if s.UnderOneGB < 0.5 {
		t.Errorf("under-1GB fraction = %g, want majority (Figure 2b)", s.UnderOneGB)
	}
}

func TestGenerateEstimateNoise(t *testing.T) {
	cfg := DefaultWeekConfig(1)
	cfg.DailyJobs = []int{500}
	cfg.EstimateNoise = 0.5
	jobs := MustGenerate(cfg)
	inflated := 0
	for _, j := range jobs {
		if j.EstimatedRunTime < j.RunTime {
			t.Fatalf("estimate %g below runtime %g", j.EstimatedRunTime, j.RunTime)
		}
		if j.EstimatedRunTime > j.RunTime {
			inflated++
		}
	}
	if inflated < len(jobs)/2 {
		t.Errorf("only %d/%d estimates inflated with noise on", inflated, len(jobs))
	}
}

func TestGenerateMaxRuntimeTruncates(t *testing.T) {
	cfg := DefaultWeekConfig(1)
	cfg.DailyJobs = []int{2000}
	cfg.MaxRuntime = 3600
	for _, j := range MustGenerate(cfg) {
		if j.RunTime > 3600 {
			t.Fatalf("runtime %g exceeds cap", j.RunTime)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.DailyJobs = nil },
		func(c *GenConfig) { c.DailyJobs = []int{-1} },
		func(c *GenConfig) { c.CoreWeights = c.CoreWeights[:1] },
		func(c *GenConfig) { c.MemPerCoreWeights = nil },
		func(c *GenConfig) { c.RuntimeMedian = 0 },
		func(c *GenConfig) { c.DiurnalAmplitude = 1 },
		func(c *GenConfig) { c.LongJobFraction = 2 },
		func(c *GenConfig) { c.EstimateNoise = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultWeekConfig(1)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustGenerate(GenConfig{})
}

func TestDiurnalConcentration(t *testing.T) {
	cfg := DefaultWeekConfig(5)
	cfg.DailyJobs = []int{20000}
	jobs := MustGenerate(cfg)
	// Peak 6-hour window around hour 14 should hold well above the
	// uniform share (25%).
	peak := 0
	for _, j := range jobs {
		h := math.Mod(j.Submit/3600, 24)
		if h >= 11 && h < 17 {
			peak++
		}
	}
	frac := float64(peak) / float64(len(jobs))
	if frac < 0.3 {
		t.Errorf("peak-window fraction = %g, want > 0.3 with amplitude 0.6", frac)
	}
}

func TestDiurnalZeroAmplitudeUniform(t *testing.T) {
	cfg := DefaultWeekConfig(5)
	cfg.DailyJobs = []int{20000}
	cfg.DiurnalAmplitude = 0
	jobs := MustGenerate(cfg)
	night := 0
	for _, j := range jobs {
		if math.Mod(j.Submit/3600, 24) < 6 {
			night++
		}
	}
	frac := float64(night) / float64(len(jobs))
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("night fraction = %g, want ~0.25 when uniform", frac)
	}
}

func TestSummarize(t *testing.T) {
	jobs := []Job{
		{ID: 1, Submit: 0, RunTime: 3600, Cores: 2, MemoryGB: 1},          // day 0, 2 reqs of 0.5 GB
		{ID: 2, Submit: 90000, RunTime: 2 * 86400, Cores: 1, MemoryGB: 2}, // day 1
		{ID: 3, Submit: 90001, RunTime: 1000, Cores: 1, MemoryGB: 0.25},   // day 1
	}
	s := Summarize(jobs)
	if s.TotalJobs != 3 || s.TotalRequests != 4 {
		t.Errorf("totals = %d/%d", s.TotalJobs, s.TotalRequests)
	}
	if len(s.JobsPerDay) != 2 || s.JobsPerDay[0] != 2 || s.JobsPerDay[1] != 2 {
		t.Errorf("JobsPerDay = %v", s.JobsPerDay)
	}
	if s.PeakDay != 0 || s.PeakDayRequests != 2 {
		t.Errorf("peak = day %d (%d)", s.PeakDay, s.PeakDayRequests)
	}
	if s.UnderOneDay != 2 {
		t.Errorf("UnderOneDay = %d, want 2", s.UnderOneDay)
	}
	if math.Abs(s.UnderOneGB-0.75) > 1e-9 { // 3 of 4 requests < 1 GB
		t.Errorf("UnderOneGB = %g, want 0.75", s.UnderOneGB)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.TotalJobs != 0 || s.TotalRequests != 0 || s.UnderOneGB != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func BenchmarkGenerateWeek(b *testing.B) {
	cfg := DefaultWeekConfig(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateWeek10x generates static-fleet-1k's trace: the default
// week with every day's job count multiplied by ten (45,740 jobs).
func BenchmarkGenerateWeek10x(b *testing.B) {
	cfg := DefaultWeekConfig(1)
	cfg.DailyJobs = append([]int(nil), cfg.DailyJobs...)
	for i := range cfg.DailyJobs {
		cfg.DailyJobs[i] *= 10
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSortDayMatchesStableSort holds sortDay to a stable sort on Submit
// over days whose submits tie, sit on both ends of the day, or crowd into
// one slice of it.
func TestSortDayMatchesStableSort(t *testing.T) {
	const dayStart = 2 * 86400
	r := stats.NewRand(1)
	for _, tc := range []struct {
		name string
		draw func(i int) float64
	}{
		{"uniform", func(int) float64 { return dayStart + r.Float64()*86400 }},
		{"all tied", func(int) float64 { return dayStart + 3600 }},
		{"both ends", func(i int) float64 { return dayStart + float64(i%2)*86400 }},
		{"one slice", func(int) float64 { return dayStart + float64(r.Intn(3)) }},
		{"few values", func(int) float64 { return dayStart + float64(r.Intn(4))*21600 }},
	} {
		for _, n := range []int{0, 1, 2, 7, 500} {
			day := make([]Job, n)
			for i := range day {
				day[i] = Job{Submit: tc.draw(i), RunTime: float64(i)}
			}
			const first = 40
			want := slices.Clone(day)
			slices.SortStableFunc(want, func(a, b Job) int { return cmp.Compare(a.Submit, b.Submit) })
			out := make([]submitKey, n)
			sortDay(out, day, first, dayStart, make([]int, n+1))
			for i, k := range out {
				if got := day[k.drawn-first]; got != want[i] || k.submit != got.Submit {
					t.Fatalf("%s, %d jobs: slot %d holds job %d (%v), want %v", tc.name, n, i, k.drawn-first, got, want[i])
				}
			}
		}
	}
}

// TestScaledWeekConfig: at the default week's length and volume the
// scaled config is the default one, and any other keeps the weekly
// pattern's length and sums to the jobs asked for.
func TestScaledWeekConfig(t *testing.T) {
	if got, want := ScaledWeekConfig(3, 7, 4574), DefaultWeekConfig(3); !reflect.DeepEqual(got, want) {
		t.Errorf("ScaledWeekConfig(3, 7, 4574) = %+v, want DefaultWeekConfig(3)", got)
	}
	for _, c := range []struct{ days, jobs int }{{7, 13722}, {7, 45740}, {1, 65000}, {10, 7000}, {3, 2}} {
		daily := ScaledWeekConfig(1, c.days, c.jobs).DailyJobs
		sum := 0
		for _, n := range daily {
			sum += n
		}
		if len(daily) != c.days || sum != c.jobs {
			t.Errorf("%d days, %d jobs: %d days summing to %d", c.days, c.jobs, len(daily), sum)
		}
	}
}
