package policy

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vector"
)

// builderAlts and builderMoves are the recorder's earlier strings.Builder
// encoders, kept as the oracles appendAlts and appendMoves are held to.
func builderAlts(alts []core.Placement) string {
	var b strings.Builder
	for i, a := range alts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(a.PM.ID), 10))
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(a.Probability, 'g', -1, 64))
	}
	return b.String()
}

func builderMoves(moves []core.Move, alts [][]core.Placement) string {
	var b strings.Builder
	for i, mv := range moves {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatInt(int64(mv.VM), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(int64(mv.From), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(int64(mv.To), 10))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(mv.Round))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(mv.Gain, 'g', -1, 64))
		if i < len(alts) && len(alts[i]) > 0 {
			b.WriteByte('@')
			b.WriteString(builderAlts(alts[i]))
		}
	}
	return b.String()
}

// TestAppendEncodersMatchBuilders holds appendAlts and appendMoves to the
// builder oracles on random passes: scores from subnormal to +Inf (a
// rescue move's gain and its lone alternative), passes with fewer
// alternative lists than moves, empty lists, and a dirty buffer that the
// encoders must append to, not overwrite.
func TestAppendEncodersMatchBuilders(t *testing.T) {
	rng := stats.NewRand(11)
	pms := make([]*cluster.PM, 40)
	for i := range pms {
		pms[i] = &cluster.PM{ID: cluster.PMID(i)}
	}
	score := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(9))
		case 2:
			return float64(rng.Intn(3))
		default:
			return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	randAlts := func() []core.Placement {
		out := make([]core.Placement, rng.Intn(5))
		for i := range out {
			out[i] = core.Placement{PM: pms[rng.Intn(len(pms))], Probability: score()}
		}
		return out
	}
	prefix := []byte("dirty|")
	for trial := 0; trial < 2000; trial++ {
		alts := randAlts()
		if got, want := appendAlts(append([]byte(nil), prefix...), alts), string(prefix)+builderAlts(alts); string(got) != want {
			t.Fatalf("appendAlts = %q, want %q", got, want)
		}
		moves := make([]core.Move, 1+rng.Intn(10))
		lists := make([][]core.Placement, rng.Intn(len(moves)+1))
		for i := range moves {
			moves[i] = core.Move{
				VM:    cluster.VMID(rng.Intn(1 << 20)),
				From:  cluster.PMID(rng.Intn(len(pms))),
				To:    cluster.PMID(rng.Intn(len(pms))),
				Round: 1 + i,
				Gain:  score(),
			}
		}
		for i := range lists {
			lists[i] = randAlts()
		}
		if got, want := appendMoves(append([]byte(nil), prefix...), moves, lists), string(prefix)+builderMoves(moves, lists); string(got) != want {
			t.Fatalf("appendMoves = %q, want %q", got, want)
		}
	}
}

// spreadFleet is a fleet of n fast PMs, all on, with one VM on each: a
// dynamic pass over it consolidates, one move a round.
func spreadFleet(t *testing.T, n int) *core.Context {
	t.Helper()
	fast := cluster.FastClass
	d := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: n}},
	})
	for i, p := range d.PMs() {
		p.SetState(cluster.PMOn)
		vm := cluster.NewVM(cluster.VMID(100+i), vector.New(1, 1), 100000, 100000, 0)
		if err := p.Host(vm); err != nil {
			t.Fatal(err)
		}
		vm.State = cluster.VMRunning
	}
	return &core.Context{DC: d, Now: 0}
}

// recordedPassAllocsPerRecord is what recording adds to a moving dynamic
// pass, in allocations beyond the unrecorded pass: the record's one
// payload string. Each move's alternative list, which core makes for the
// hook, comes on top of it, one slice a move.
const recordedPassAllocsPerRecord = 1

func TestRecordedPassAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // for the MemStats deltas
	o := obs.New()
	o.Decisions = obs.NewTracer(io.Discard)
	pass := func(p Policy) (moves []core.Move, allocs uint64) {
		ctx := spreadFleet(t, 24)
		ctx.Obs = o
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		moves, err := p.Consolidate(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return moves, after.Mallocs - before.Mallocs
	}
	rec := NewRecorder(NewDynamic(), 0)
	pass(rec) // the recorder's buffers, hook and list of lists, and the tracer's line, grown
	plainMoves, plain := pass(NewDynamic())
	moves, recorded := pass(rec)
	if len(moves) < 2 || len(moves) != len(plainMoves) {
		t.Fatalf("recorded pass made %d moves, unrecorded %d", len(moves), len(plainMoves))
	}
	t.Logf("%d moves: %d allocations recorded, %d unrecorded", len(moves), recorded, plain)
	if budget := plain + recordedPassAllocsPerRecord + uint64(len(moves)); recorded > budget {
		t.Errorf("recorded pass of %d moves allocates %d times, unrecorded %d: budget %d",
			len(moves), recorded, plain, budget)
	}
}
