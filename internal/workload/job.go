// Package workload supplies the job traces that drive the simulator.
//
// The paper evaluates on one week of the LPC log from the Parallel
// Workloads Archive, filtered to drop cancelled jobs and jobs with small
// memory requirements, with each job's memory divided evenly over its cores
// so every VM request is single-core (Section V.A). This package provides:
//
//   - a parser and writer for the archive's Standard Workload Format (SWF),
//     so the real trace file can be used directly when available;
//   - the paper's filtering and per-core normalization steps;
//   - a seeded synthetic generator calibrated to the published workload
//     characteristics (Figure 2) for use when the original trace is not
//     available — see Generate;
//   - descriptive statistics reproducing Figure 2.
package workload

import (
	"cmp"
	"slices"
)

// Job is one batch job from a trace, before conversion to VM requests.
// Times are seconds; memory is total gigabytes across all cores.
type Job struct {
	// ID is the job number from the trace.
	ID int

	// Submit is the submission time in seconds since trace start.
	Submit float64

	// RunTime is the job's actual execution time in seconds.
	RunTime float64

	// EstimatedRunTime is the user-requested (estimated) runtime in
	// seconds; the placement scheme sees only this value.
	EstimatedRunTime float64

	// Cores is the number of processors the job used.
	Cores int

	// MemoryGB is the total memory the job used, in gigabytes.
	MemoryGB float64

	// Status is the SWF completion status (1 = completed, 0 = failed,
	// 5 = cancelled).
	Status int
}

// SWF status codes relevant to filtering.
const (
	StatusFailed    = 0
	StatusCompleted = 1
	StatusCancelled = 5
)

// FilterConfig selects which jobs survive trace cleaning, mirroring the
// paper: "filter out the canceled jobs, jobs with small memory
// requirements".
type FilterConfig struct {
	// MinMemoryPerCoreGB drops jobs whose per-core memory falls below
	// the threshold. The paper does not state its cut-off; 0.25 GB keeps
	// the minimal VM request aligned with cluster.TableIIRMin.
	MinMemoryPerCoreGB float64

	// DropCancelled removes StatusCancelled jobs.
	DropCancelled bool

	// DropZeroRuntime removes jobs that never ran (runtime <= 0), which
	// appear in real archive logs as failed submissions.
	DropZeroRuntime bool
}

// DefaultFilter is the filter used for the paper's experiments.
func DefaultFilter() FilterConfig {
	return FilterConfig{
		MinMemoryPerCoreGB: 0.25,
		DropCancelled:      true,
		DropZeroRuntime:    true,
	}
}

// Filter returns the jobs that pass cfg, preserving order.
func Filter(jobs []Job, cfg FilterConfig) []Job {
	out := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		if cfg.DropCancelled && j.Status == StatusCancelled {
			continue
		}
		if cfg.DropZeroRuntime && j.RunTime <= 0 {
			continue
		}
		if j.Cores <= 0 {
			continue
		}
		if cfg.MinMemoryPerCoreGB > 0 && j.MemoryGB/float64(j.Cores) < cfg.MinMemoryPerCoreGB {
			continue
		}
		out = append(out, j)
	}
	return out
}

// SortBySubmit orders jobs by submission time (stable on ID for ties),
// which the simulator requires.
func SortBySubmit(jobs []Job) {
	slices.SortStableFunc(jobs, func(a, b Job) int {
		if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// Request is one single-core VM request derived from a job, the unit the
// placement scheme operates on.
type Request struct {
	// JobID is the originating job.
	JobID int

	// Index distinguishes the request among the job's cores.
	Index int

	// Submit is the arrival time in seconds.
	Submit float64

	// CPUCores is always 1 after normalization (kept as a field so the
	// converter can be reused with different splits).
	CPUCores float64

	// MemoryGB is the job memory divided by its core count.
	MemoryGB float64

	// EstimatedRunTime and RunTime are inherited from the job.
	EstimatedRunTime float64
	RunTime          float64
}

// ToRequests converts filtered jobs to single-core VM requests: a job with
// c cores becomes c requests of one core and MemoryGB/c memory each, as in
// Section V.A ("we have normalized the memory required by each job by
// equally dividing its number of cores required").
func ToRequests(jobs []Job) []Request {
	n := 0
	for _, j := range jobs {
		n += max(j.Cores, 0)
	}
	out := make([]Request, 0, n)
	for _, j := range jobs {
		if j.Cores <= 0 {
			continue
		}
		perCore := j.MemoryGB / float64(j.Cores)
		for c := 0; c < j.Cores; c++ {
			out = append(out, Request{
				JobID:            j.ID,
				Index:            c,
				Submit:           j.Submit,
				CPUCores:         1,
				MemoryGB:         perCore,
				EstimatedRunTime: j.EstimatedRunTime,
				RunTime:          j.RunTime,
			})
		}
	}
	return out
}
