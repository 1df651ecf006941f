package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFilterDropsCancelled(t *testing.T) {
	jobs := []Job{
		{ID: 1, RunTime: 10, Cores: 1, MemoryGB: 1, Status: StatusCompleted},
		{ID: 2, RunTime: 10, Cores: 1, MemoryGB: 1, Status: StatusCancelled},
		{ID: 3, RunTime: 10, Cores: 1, MemoryGB: 1, Status: StatusFailed},
	}
	out := Filter(jobs, DefaultFilter())
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 3 {
		t.Errorf("Filter = %v", out)
	}
}

func TestFilterDropsSmallMemory(t *testing.T) {
	jobs := []Job{
		{ID: 1, RunTime: 10, Cores: 2, MemoryGB: 0.25, Status: 1}, // 0.125/core
		{ID: 2, RunTime: 10, Cores: 2, MemoryGB: 0.5, Status: 1},  // 0.25/core
	}
	out := Filter(jobs, DefaultFilter())
	if len(out) != 1 || out[0].ID != 2 {
		t.Errorf("Filter = %v", out)
	}
}

func TestFilterDropsZeroRuntimeAndZeroCores(t *testing.T) {
	jobs := []Job{
		{ID: 1, RunTime: 0, Cores: 1, MemoryGB: 1, Status: 1},
		{ID: 2, RunTime: 5, Cores: 0, MemoryGB: 1, Status: 1},
		{ID: 3, RunTime: 5, Cores: 1, MemoryGB: 1, Status: 1},
	}
	out := Filter(jobs, DefaultFilter())
	if len(out) != 1 || out[0].ID != 3 {
		t.Errorf("Filter = %v", out)
	}
}

func TestFilterDisabledChecks(t *testing.T) {
	jobs := []Job{{ID: 1, RunTime: 0, Cores: 1, MemoryGB: 0.01, Status: StatusCancelled}}
	out := Filter(jobs, FilterConfig{})
	if len(out) != 1 {
		t.Error("permissive filter dropped a job")
	}
}

func TestSortBySubmit(t *testing.T) {
	jobs := []Job{
		{ID: 3, Submit: 50},
		{ID: 1, Submit: 10},
		{ID: 4, Submit: 50},
		{ID: 2, Submit: 30},
	}
	SortBySubmit(jobs)
	wantIDs := []int{1, 2, 3, 4}
	for i, w := range wantIDs {
		if jobs[i].ID != w {
			t.Fatalf("order = %v", jobs)
		}
	}
}

func TestToRequestsSplit(t *testing.T) {
	jobs := []Job{{ID: 9, Submit: 100, RunTime: 50, EstimatedRunTime: 60, Cores: 4, MemoryGB: 2}}
	reqs := ToRequests(jobs)
	if len(reqs) != 4 {
		t.Fatalf("requests = %d, want 4", len(reqs))
	}
	for i, q := range reqs {
		if q.JobID != 9 || q.Index != i {
			t.Errorf("request %d identity = %+v", i, q)
		}
		if q.CPUCores != 1 {
			t.Errorf("request %d cores = %g, want 1", i, q.CPUCores)
		}
		if math.Abs(q.MemoryGB-0.5) > 1e-12 {
			t.Errorf("request %d mem = %g, want 0.5", i, q.MemoryGB)
		}
		if q.Submit != 100 || q.RunTime != 50 || q.EstimatedRunTime != 60 {
			t.Errorf("request %d times = %+v", i, q)
		}
	}
}

func TestToRequestsSkipsZeroCores(t *testing.T) {
	if got := ToRequests([]Job{{ID: 1, Cores: 0}}); len(got) != 0 {
		t.Errorf("zero-core job produced %d requests", len(got))
	}
}

// Property: filtering is idempotent.
func TestQuickFilterIdempotent(t *testing.T) {
	cfg := DefaultFilter()
	f := func(raw []struct {
		Run    uint16
		Cores  uint8
		MemDGB uint8 // deci-GB
		Status uint8
	}) bool {
		jobs := make([]Job, len(raw))
		for i, r := range raw {
			jobs[i] = Job{
				ID: i, RunTime: float64(r.Run), Cores: int(r.Cores % 16),
				MemoryGB: float64(r.MemDGB) / 10, Status: int(r.Status % 6),
			}
		}
		once := Filter(jobs, cfg)
		twice := Filter(once, cfg)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ToRequests conserves total memory and request count equals
// total cores.
func TestQuickToRequestsConserves(t *testing.T) {
	f := func(raw []struct {
		Cores  uint8
		MemDGB uint16
	}) bool {
		jobs := make([]Job, len(raw))
		totalCores := 0
		var totalMem float64
		for i, r := range raw {
			c := int(r.Cores%8) + 1
			jobs[i] = Job{ID: i, Cores: c, MemoryGB: float64(r.MemDGB) / 10}
			totalCores += c
			totalMem += jobs[i].MemoryGB
		}
		reqs := ToRequests(jobs)
		if len(reqs) != totalCores {
			return false
		}
		var mem float64
		for _, q := range reqs {
			mem += q.MemoryGB
		}
		return math.Abs(mem-totalMem) < 1e-6*(1+totalMem)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
