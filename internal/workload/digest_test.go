package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// jobsDigest is an FNV-64a hash over every field of every job, in order,
// IDs included: two traces hash alike only if they are bit-identical.
func jobsDigest(jobs []Job) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, j := range jobs {
		put(uint64(j.ID))
		put(math.Float64bits(j.Submit))
		put(math.Float64bits(j.RunTime))
		put(math.Float64bits(j.EstimatedRunTime))
		put(uint64(j.Cores))
		put(math.Float64bits(j.MemoryGB))
		put(uint64(j.Status))
	}
	return h.Sum64()
}

// TestGenerateDigest pins the generator's output, bit for bit, on the
// shapes the binaries build: any change to Generate (its ordering
// included) must leave these digests as they are.
func TestGenerateDigest(t *testing.T) {
	tenfold := DefaultWeekConfig(1)
	tenfold.DailyJobs = append([]int(nil), tenfold.DailyJobs...)
	for i := range tenfold.DailyJobs {
		tenfold.DailyJobs[i] *= 10
	}
	oneDay := DefaultWeekConfig(1)
	oneDay.DailyJobs = []int{65000}

	for _, tc := range []struct {
		name   string
		cfg    GenConfig
		jobs   int
		digest uint64
	}{
		{"week seed 1", DefaultWeekConfig(1), 4574, 0x6ea2ec67f2930a3c},
		{"week seed 7", DefaultWeekConfig(7), 4574, 0xed177b650d6192a4},
		// static-fleet-1k's trace: the week at 10x.
		{"week at 10x", tenfold, 45740, 0xc412cabc2ce31347},
		// What `tracegen -days 1 -jobs 65000` builds.
		{"one day of 65000", oneDay, 65000, 0x92805f63a22476e5},
		{"google-like seed 1", GoogleLikeConfig(1), 17400, 0x184665ce88b620c1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := MustGenerate(tc.cfg)
			if len(jobs) != tc.jobs {
				t.Fatalf("%d jobs, want %d", len(jobs), tc.jobs)
			}
			if got := jobsDigest(jobs); got != tc.digest {
				t.Errorf("digest %#016x, want %#016x", got, tc.digest)
			}
		})
	}
}
