package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/vector"
)

// linearFirstFit is the walk the index replaces: the first PM in ID order
// that CanHosts demand.
func linearFirstFit(d *Datacenter, demand vector.V) *PM {
	for _, p := range d.PMs() {
		if p.CanHost(demand) {
			return p
		}
	}
	return nil
}

// fitFleet builds an n-PM, k-dimensional fleet of three classes whose
// boundaries fall inside blocks past n = 3, so heterogeneous capacities
// meet in one block.
func fitFleet(n, k int) *Datacenter {
	caps := [][]float64{{8, 8, 8}, {4, 4, 2}, {6.5, 0.3, 5}}
	counts := []int{n, 0, 0}
	if n >= 3 {
		counts = []int{(n + 3) / 4, n / 2, n - (n+3)/4 - n/2}
	}
	var groups []Group
	for i, c := range counts {
		if c == 0 {
			continue
		}
		class := FastClass
		class.Name = fmt.Sprintf("c%d", i)
		class.Capacity = vector.V(caps[i][:k]).Clone()
		groups = append(groups, Group{Class: &class, Count: c})
	}
	return MustNew(Config{RMin: vector.V{0.25, 0.25, 0.25}[:k].Clone(), Groups: groups})
}

// fitOps drives a datacenter from a byte stream: hosts, evictions, every
// power state, reservations and their release, and reliability changes.
type fitOps struct {
	d      *Datacenter
	data   []byte
	vms    []*VM
	holds  []fitHold
	nextVM VMID
}

type fitHold struct {
	pm     *PM
	demand vector.V
}

func (o *fitOps) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *fitOps) pm() *PM {
	return o.d.PM(PMID((int(o.byte())<<8 | int(o.byte())) % o.d.Size()))
}

// fitMenu holds demand components on and off the capacities' grid: 0.1
// and 0.3 are not binary fractions, so their sums round.
var fitMenu = []float64{0, 0.1, 0.25, 0.3, 0.5, 1, 1.5, 2, 3.7, 4, 6.5, 8}

// demand draws a demand: from the menu, or on the Epsilon boundary of a
// PM's residual.
func (o *fitOps) demand() vector.V {
	if b := o.byte(); b%3 != 0 {
		v := make(vector.V, o.d.rmin.Dim())
		for j := range v {
			v[j] = fitMenu[int(o.byte())%len(fitMenu)]
		}
		return v
	}
	p := o.pm()
	return boundary(p, int(o.byte()))
}

// boundary is a demand on the Epsilon boundary of p's residual, by mode
// (mod 4): exactly the residual; the residual plus Epsilon, Fits's own
// tolerance, so that `used + v` lands on `cap + Epsilon` up to rounding;
// one ulp past that, which Fits accepts where `used + v` rounds down
// (used 0.25 on a capacity of 8: DESIGN §16's rounding argument); or
// Epsilon short of the residual.
func boundary(p *PM, mode int) vector.V {
	v := make(vector.V, len(p.Used))
	for j := range v {
		r := p.Class.Capacity[j] - p.Used[j]
		switch mode % 4 {
		case 1:
			r += vector.Epsilon
		case 2:
			r = math.Nextafter(r+vector.Epsilon, math.Inf(1))
		case 3:
			r -= vector.Epsilon
		}
		v[j] = max(r, 0)
	}
	return v
}

// step applies one operation and returns the PM it touched and the demand
// it used, if any.
func (o *fitOps) step() (*PM, vector.V) {
	switch o.byte() % 7 {
	case 0, 1:
		v, p := o.demand(), o.pm()
		o.nextVM++
		vm := NewVM(o.nextVM, v, 100, 100, 0)
		if p.Host(vm) == nil {
			o.vms = append(o.vms, vm)
		}
		return p, v
	case 2:
		if len(o.vms) > 0 {
			i := int(o.byte()) % len(o.vms)
			vm := o.vms[i]
			p := o.d.PM(vm.Host)
			if err := p.Evict(vm); err != nil {
				panic(err)
			}
			o.vms = append(o.vms[:i], o.vms[i+1:]...)
			return p, vm.Demand
		}
	case 3, 4:
		p := o.pm()
		p.SetState(PMState(o.byte() % 5))
		return p, nil
	case 5:
		if b := o.byte(); b%2 == 0 || len(o.holds) == 0 {
			v, p := o.demand(), o.pm()
			if p.Reserve(v) == nil {
				o.holds = append(o.holds, fitHold{p, v})
			}
			return p, v
		}
		i := int(o.byte()) % len(o.holds)
		h := o.holds[i]
		h.pm.Release(h.demand)
		o.holds = append(o.holds[:i], o.holds[i+1:]...)
		return h.pm, h.demand
	case 6:
		p := o.pm()
		p.SetReliability(float64(o.byte()%100+1) / 100)
		return p, nil
	}
	return nil, nil
}

// fitSizes are FuzzFirstFit's fleet sizes: a last block mostly padding
// (1, 3), partly padding (100, 1,000), whole blocks and no padding (32),
// and one PM in the last block (17).
var fitSizes = []int{1, 3, 100, 1000, 32, 17}

// FuzzFirstFit holds Datacenter.FirstFit to the linear walk after every
// operation, on R^MIN, the operation's own demand and the four Epsilon
// boundaries of the touched PM's residual. The stream's first byte (mod
// 32) is how many operations run before the first query, so the index is
// built from a fleet already in use. The index's audit twin
// (fitIndex.check) runs after every operation too, before the queries sync
// the feed and after.
func FuzzFirstFit(f *testing.F) {
	for si := range fitSizes {
		for _, k := range []uint8{2, 3} {
			// Boot PMs 0-5 and host a (0.25, 0.25[, 0.25]) VM on PM 0 —
			// its one-ulp boundary fits by rounding — before the index is
			// built, then every operation.
			seed := []byte{7}
			for p := byte(0); p < 6; p++ {
				seed = append(seed, 3, 0, p, byte(PMOn))
			}
			seed = append(seed, 0, 1, 2, 2, 2, 0, 0,
				1, 1, 5, 6, 7, 0, 1, 0, 0, 0, 2, 0, 2, 1, 0, 3, 3, 0, 1, 7, 0, 0,
				3, 0, 2, byte(PMBooting), 1, 0, 0, 2, 4, 0, 2, 2, 0, 6, 0, 1, 50,
				5, 0, 1, 2, 0, 0, 0, 1, 1, 0, 4, 0, 0, 6, 0, 1, 5, 1, 0,
				4, 0, 1, byte(PMFailed), 2, 0, 3, 0, 3, byte(PMShuttingDown), 0, 3, 0, 0, 1, 0, 2,
				5, 1, 0, 2, 3, 0, 0, byte(PMOff), 1, 0, 2, 0, 2, 0, 1, 2, 1, 1, 9, 0, 99)
			f.Add(seed, uint8(si), k)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, size, k uint8) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		d := fitFleet(fitSizes[int(size)%len(fitSizes)], 2+int(k)%2)
		o := &fitOps{d: d, data: data}
		for warm := o.byte() % 32; warm > 0; warm-- {
			o.step()
		}
		d.FirstFit(d.rmin)
		for step := 0; len(o.data) > 0; step++ {
			p, used := o.step()
			if err := d.fit.check(d); err != nil {
				t.Fatalf("step %d, before the queries: %v", step, err)
			}
			queries := []vector.V{d.rmin, used}
			for mode := 0; p != nil && mode < 4; mode++ {
				queries = append(queries, boundary(p, mode))
			}
			for _, v := range queries {
				if v == nil {
					continue
				}
				if got, want := d.FirstFit(v), linearFirstFit(d, v); got != want {
					t.Fatalf("step %d: FirstFit(%v) = %v, the walk finds %v", step, v, got, want)
				}
			}
			if err := d.fit.check(d); err != nil {
				t.Fatalf("step %d, after the queries: %v", step, err)
			}
		}
	})
}

// TestFirstFitLazyAndLocal: a datacenter subscribes the index's feed on
// its first FirstFit and never again, one never asked has no feed, and a
// CloneTopology clone answers from its own state, starts without an
// index, and shares no bumps with the original.
func TestFirstFitLazyAndLocal(t *testing.T) {
	d := fitFleet(100, 2)
	d.PM(1).SetState(PMOn)
	d.PM(4).SetState(PMOn)
	if err := d.PM(1).Host(NewVM(1, vector.New(2, 2), 100, 100, 0)); err != nil {
		t.Fatal(err)
	}
	d.PM(4).SetReliability(0.5)
	if len(d.feeds) != 0 {
		t.Fatalf("a datacenter never asked has %d feeds, want 0", len(d.feeds))
	}
	v := vector.New(1, 1)
	if got := d.FirstFit(v); got != d.PM(1) {
		t.Fatalf("FirstFit = %v, want PM 1", got)
	}
	d.FirstFit(v)
	if len(d.feeds) != 1 {
		t.Fatalf("after two FirstFit calls the datacenter has %d feeds, want 1", len(d.feeds))
	}

	c := d.CloneTopology()
	if c.fit != nil || len(c.feeds) != 0 {
		t.Fatalf("a clone starts with an index (%v) or %d feeds", c.fit != nil, len(c.feeds))
	}
	if got := c.FirstFit(v); got != nil {
		t.Fatalf("an all-off clone's FirstFit = %v, want nil", got)
	}
	c.PM(7).SetState(PMOn)
	if got := c.FirstFit(v); got != c.PM(7) {
		t.Fatalf("clone FirstFit = %v, want its own PM 7", got)
	}
	if got := d.FirstFit(v); got != d.PM(1) {
		t.Fatalf("after the clone booted PM 7, the original's FirstFit = %v, want PM 1", got)
	}
	d.PM(1).SetState(PMOff)
	if got := c.FirstFit(v); got != c.PM(7) {
		t.Fatalf("after the original shut PM 1, the clone's FirstFit = %v, want PM 7", got)
	}
}

// TestFirstFitMissedFeedEntryFailsByName: the index learns of a write only
// from its feed, so a feed entry lost before a sync leaves that PM's leaf
// stale, and CheckInvariants must name the PM. A write the feed does name
// passes first, after the sync that lowers the maximum of the PM's block:
// PM 6 is the one PM on in it, beside PM 20 in the next block. A corrupted
// block maximum fails by its block number.
func TestFirstFitMissedFeedEntryFailsByName(t *testing.T) {
	d := fitFleet(100, 2)
	d.PM(6).SetState(PMOn)
	d.PM(20).SetState(PMOn)
	d.FirstFit(d.rmin)
	pm := d.PM(6)
	want := fmt.Sprintf("PM %d ", pm.ID)
	for i, drop := range []bool{false, true} {
		vm := NewVM(VMID(i+1), vector.New(1, 0.5), 100, 100, 0)
		if err := pm.Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = VMRunning
		if drop {
			d.fit.feed.Take()
		} else if got := d.FirstFit(vector.New(7.5, 7.5)); got != d.PM(20) {
			t.Fatalf("FirstFit(7.5, 7.5) = %v after PM 6 took a VM, want PM 20", got)
		}
		err := d.CheckInvariants()
		if !drop && err != nil {
			t.Fatalf("a host the feed names: %v", err)
		}
		if drop && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Fatalf("a host the index's feed lost: CheckInvariants = %v, want an error naming %q", err, want)
		}
	}

	d = fitFleet(100, 2)
	d.PM(0).SetState(PMOn)
	d.PM(20).SetState(PMOn)
	d.FirstFit(d.rmin)
	d.fit.block[1*d.fit.k]++
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "index block 1 ") {
		t.Fatalf("a block above its leaves' maximum: CheckInvariants = %v, want an error naming block 1", err)
	}
}

// BenchmarkFirstFit times FirstFit on a loaded Table II fleet of 100, 1,000
// and 10,000 PMs, all on. The fleet is filled first-fit from a fixed
// stream of demands on a grid of binary fractions until a draw finds no
// host. Each op is then two queries and a round trip: a demand some PM
// can host, whose answer takes a probe VM; a demand none can, whose
// answer is nil (a queued request); and the probe's eviction, which puts
// every PM back bit for bit. Both queries sync the PM the op bumped.
// ns/query is the op's time over its two queries.
func BenchmarkFirstFit(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("pms%d", n), func(b *testing.B) {
			d := TableIIFleetScaled(n)
			for _, p := range d.PMs() {
				p.SetState(PMOn)
			}
			var menu []vector.V
			for _, cpu := range []float64{1, 2, 3, 4} {
				for _, mem := range []float64{0.25, 0.5, 1, 2, 3} {
					menu = append(menu, vector.New(cpu, mem))
				}
			}
			id, seed := VMID(0), uint32(1)
			for {
				seed = seed*1664525 + 1013904223
				v := menu[int(seed>>16)%len(menu)]
				p := d.FirstFit(v)
				if p == nil {
					break
				}
				id++
				if err := p.Host(NewVM(id, v, 100, 100, 0)); err != nil {
					b.Fatal(err)
				}
			}
			var probes []*VM
			var none []vector.V
			for _, v := range menu {
				if linearFirstFit(d, v) == nil {
					none = append(none, v)
				} else {
					id++
					probes = append(probes, NewVM(id, v, 100, 100, 0))
				}
			}
			if len(probes) == 0 || len(none) == 0 {
				b.Fatalf("%d demands place and %d do not, want some of each", len(probes), len(none))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm := probes[i%len(probes)]
				p := d.FirstFit(vm.Demand)
				if err := p.Host(vm); err != nil {
					b.Fatal(err)
				}
				if q := d.FirstFit(none[i%len(none)]); q != nil {
					b.Fatalf("FirstFit(%v) = PM %d on a fleet the walk found full for it", none[i%len(none)], q.ID)
				}
				if err := p.Evict(vm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/query")
		})
	}
}
