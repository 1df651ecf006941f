package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cost is an open measurement interval: wall clock, process CPU time and
// the allocator's cumulative counters at its start.
type cost struct {
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
}

// measured is a closed interval, every number as the host read it.
type measured struct {
	wallS, cpuS      float64
	allocMB, allocsK float64
}

func startCost() *cost {
	c := &cost{}
	runtime.ReadMemStats(&c.ms0)
	c.cpu0 = cpuSeconds()
	c.t0 = time.Now()
	return c
}

func (c *cost) wall() float64 { return time.Since(c.t0).Seconds() }

func (c *cost) stop() measured {
	m := measured{wallS: c.wall(), cpuS: cpuSeconds() - c.cpu0}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocMB = float64(ms.TotalAlloc-c.ms0.TotalAlloc) / 1e6
	m.allocsK = float64(ms.Mallocs-c.ms0.Mallocs) / 1e3
	return m
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss, the VmHWM counter, in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) * 1024 / 1e6 }

// quartiles mirrors Python's statistics.quantiles(v, n=4), the estimator
// the acceptance check uses, so bench.wall_iqr_ratio predicts what it sees.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return q(1), q(2), q(3)
}

// ratio is a/b, 0 where the denominator never ran (a layer the workload
// bypasses reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// host is the record every result file carries, so a number can be traced
// to the box and the commit that produced it.
type host struct {
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func hostRecord() host {
	h := host{
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A source checkout without .git (how the acceptance driver runs the
	// benchmark) has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}
