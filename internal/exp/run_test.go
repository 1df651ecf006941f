package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunAll drives the runner itself at several worker counts: every
// index runs exactly once, min(workers, n) tasks really run at the same
// time and never more, and every failure comes back, in index order,
// with no healthy task blamed.
func TestRunAll(t *testing.T) {
	const n = 17
	for _, workers := range []int{1, 3, n + 5, 0} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			want := workers
			if want <= 0 {
				want = runtime.GOMAXPROCS(0)
			}
			if want > n {
				want = n
			}
			var (
				calls     [n]atomic.Int32
				cur, peak atomic.Int32
				gate      sync.WaitGroup
			)
			gate.Add(want)
			err := runAll(n, workers, func(i int) error {
				calls[i].Add(1)
				c := cur.Add(1)
				for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
				}
				if i < want {
					// The first `want` tasks meet here: a runner with
					// fewer goroutines would never get past it.
					gate.Done()
					gate.Wait()
				}
				cur.Add(-1)
				if i%5 == 0 {
					return fmt.Errorf("boom %d", i)
				}
				return nil
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("task %d ran %d times", i, c)
				}
			}
			if p := int(peak.Load()); p != want {
				t.Errorf("peak concurrency %d, want %d", p, want)
			}
			if err == nil || err.Error() != "boom 0\nboom 5\nboom 10\nboom 15" {
				t.Errorf("joined error = %q", err)
			}
		})
	}
	if err := runAll(0, 4, func(int) error { panic("task of an empty list ran") }); err != nil {
		t.Errorf("empty task list: %v", err)
	}
	if err := runAll(3, 2, func(int) error { return nil }); err != nil {
		t.Errorf("all tasks healthy, got %v", err)
	}
}

// TestComparisonAcrossWorkers is the contract of a study on the runner,
// checked at one worker and at several: rows come back in scheme order
// whatever order they finish in, and equal a one-worker pass.
func TestComparisonAcrossWorkers(t *testing.T) {
	serial, err := comparison(smallOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		opts := smallOptions()
		runs, err := comparison(opts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(runs) != len(opts.Schemes) {
			t.Fatalf("workers=%d: %d runs for %d schemes", workers, len(runs), len(opts.Schemes))
		}
		for i, r := range runs {
			if r.Scheme != opts.Schemes[i] {
				t.Errorf("workers=%d: row %d is %s, want %s", workers, i, r.Scheme, opts.Schemes[i])
			}
			if r.WeekEnergyKWh != serial[i].WeekEnergyKWh || r.Summary != serial[i].Summary {
				t.Errorf("workers=%d: %s differs from the one-worker pass", workers, r.Scheme)
			}
		}

		// Every failing scheme is named, not just whichever lost the race.
		opts.Schemes = []string{"bogus-a", "first-fit", "bogus-b"}
		_, err = comparison(opts, workers)
		if err == nil {
			t.Fatalf("workers=%d: comparison with two bogus schemes succeeded", workers)
		}
		for _, scheme := range []string{"bogus-a", "bogus-b"} {
			if !strings.Contains(err.Error(), scheme) {
				t.Errorf("workers=%d: joined error does not mention %s:\n%v", workers, scheme, err)
			}
		}
		if strings.Contains(err.Error(), "first-fit:") {
			t.Errorf("workers=%d: error blames the healthy scheme:\n%v", workers, err)
		}
	}
}

// TestPaperClaimsSeed1 asserts, on the real seed-1 week and the Table II
// fleet, the shape of the paper's evaluation that EXPERIMENTS.md records:
// the dynamic scheme holds the fewest servers (Figure 3), uses the least
// energy over the week (Figure 4), is cheaper than first-fit on most days
// (Figure 5), and with the spare controller keeps queueing under the
// Section IV bound of 5%.
func TestPaperClaimsSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("full week comparison skipped in -short mode")
	}
	runs, err := Comparison(DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	ff, bf, dyn := runs[0], runs[1], runs[2]
	if ff.Scheme != "first-fit" || bf.Scheme != "best-fit" || dyn.Scheme != "dynamic" {
		t.Fatalf("rows are %s, %s, %s", ff.Scheme, bf.Scheme, dyn.Scheme)
	}
	active := Fig3Table(runs).Series
	for i, base := range []*SchemeRun{ff, bf} {
		if d, b := active[2].Mean(), active[i].Mean(); d >= b {
			t.Errorf("figure 3: dynamic holds %.1f servers on average, %s %.1f", d, base.Scheme, b)
		}
		if dyn.WeekEnergyKWh >= base.WeekEnergyKWh {
			t.Errorf("figure 4: dynamic used %.1f kWh, %s %.1f", dyn.WeekEnergyKWh, base.Scheme, base.WeekEnergyKWh)
		}
	}
	daily := Fig5Table(runs).Series
	wins := 0
	for d := 0; d < daily[2].Len(); d++ {
		if daily[2].At(d) <= daily[0].At(d) {
			wins++
		}
	}
	if 2*wins < daily[2].Len() {
		t.Errorf("figure 5: dynamic cheaper than first-fit on only %d of %d days", wins, daily[2].Len())
	}
	if q := dyn.Summary.QueuedFraction; q >= 0.05 {
		t.Errorf("QoS bound: %.2f%% of requests queued under the spare controller", q*100)
	}
}
