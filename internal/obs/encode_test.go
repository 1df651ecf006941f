package obs

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestAppendQuoteMatchesStrconv holds the tracer's quoting fast path to
// strconv.AppendQuote: every single byte, then random strings — arbitrary
// runes, arbitrary bytes (invalid UTF-8 included), and strings drawn from
// an alphabet that mixes the fast path's printable ASCII with '"', '\',
// control characters, DEL and UTF-8 fragments.
func TestAppendQuoteMatchesStrconv(t *testing.T) {
	same := func(s string) bool {
		prefix := []byte(`{"k":`)
		got := appendQuote(append([]byte(nil), prefix...), s)
		want := strconv.AppendQuote(append([]byte(nil), prefix...), s)
		return bytes.Equal(got, want)
	}
	for c := 0; c < 256; c++ {
		if s := string([]byte{byte(c)}); !same(s) {
			t.Errorf("byte %#x: appendQuote %s, strconv %s", c, appendQuote(nil, s), strconv.AppendQuote(nil, s))
		}
	}
	const alphabet = "az09 _-.:=,|@~\"\\\x00\x01\n\t\x1f\x7f\x80\xc3\xa9\xff"
	mixed := func(b []byte) bool {
		var sb strings.Builder
		for _, c := range b {
			sb.WriteByte(alphabet[int(c)%len(alphabet)])
		}
		return same(sb.String())
	}
	for name, prop := range map[string]any{
		"runes": same,
		"bytes": func(b []byte) bool { return same(string(b)) },
		"mixed": mixed,
	} {
		if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if !same("") || !same("decision_moves") || !same("0=1.25,3=+Inf") {
		t.Error("a fast-path string differs from strconv")
	}
}

// TestTimeMemo feeds the tracer a run of times that repeat, flip sign at
// zero and pass through the quoted non-finite forms, and compares every
// line with one encoded by strconv alone, without the memo. A ResumeSeq in
// the middle moves the clock but must not disturb the memo, and a fresh
// tracer's first line at t = 0 must still print 0.
func TestTimeMemo(t *testing.T) {
	format := func(v float64) string {
		s := strconv.FormatFloat(v, 'g', -1, 64)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return strconv.Quote(s)
		}
		return s
	}
	times := []float64{0, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(1), math.NaN(), math.NaN(), 1e-300, 1e-300}
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	fixedWall(tr, 7)
	seq := uint64(0)
	var want []string
	for i, v := range times {
		if i == 4 {
			seq += 10
			if err := tr.ResumeSeq(seq); err != nil {
				t.Fatal(err)
			}
		}
		tr.Emit(v, "tick", I("i", int64(i)))
		line := `{"v":1,"seq":` + strconv.FormatUint(seq, 10) + `,"t":` + format(v) +
			`,"event":"tick","i":` + strconv.Itoa(i) + `,"wall":7}`
		want = append(want, line)
		seq++
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d (t = %v):\ngot  %s\nwant %s", i, times[i], got[i], want[i])
		}
	}
	if !strings.HasPrefix(got[0], `{"v":1,"seq":0,"t":0,`) || !strings.Contains(got[2], `"t":-0,`) {
		t.Errorf("zero lines: %s / %s", got[0], got[2])
	}
}

// emitAllocCeiling is Tracer.Emit's allocation budget for a line of I, F,
// S and B fields on a warm tracer: the line is encoded into the tracer's
// own buffer, so nothing is allocated.
const emitAllocCeiling = 0

func TestEmitAllocBudget(t *testing.T) {
	tr := NewTracer(io.Discard)
	now := 3600.0
	emit := func() {
		now += 0.5
		tr.Emit(now, "decision_moves",
			I("call", 12), F("gain", 1.0625), F("rescue", math.Inf(1)),
			S("moves", "3:0:1:1:1.13@1=1.13,4=0.18"), S("note", `quo"te`), B("timed", true))
	}
	emit()
	if allocs := testing.AllocsPerRun(1000, emit); allocs > emitAllocCeiling {
		t.Errorf("Emit allocates %.1f times a line, budget %d", allocs, emitAllocCeiling)
	}
}
