package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// oracleLine is the JSONL line encoder the tracer ran before it wrote
// binary records, frozen as the renderer's reference: strconv for every
// number and string, no memo, no fast path. A compound field is given as
// S with its rendered text, which is how the recorder wrote it then.
func oracleLine(seq uint64, t float64, event string, wall int64, fields []KV) string {
	float := func(b []byte, v float64) []byte {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return strconv.AppendQuote(b, strconv.FormatFloat(v, 'g', -1, 64))
		}
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b := []byte(`{"v":1,"seq":`)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"t":`...)
	b = float(b, t)
	b = append(b, `,"event":`...)
	b = strconv.AppendQuote(b, event)
	for _, kv := range fields {
		b = append(b, ',')
		b = strconv.AppendQuote(b, kv.K)
		b = append(b, ':')
		switch kv.kind {
		case kindInt:
			b = strconv.AppendInt(b, kv.n, 10)
		case kindFloat:
			b = float(b, math.Float64frombits(uint64(kv.n)))
		case kindString:
			b = strconv.AppendQuote(b, kv.s)
		case kindTrue:
			b = append(b, "true"...)
		case kindFalse:
			b = append(b, "false"...)
		default:
			b = append(b, "null"...)
		}
	}
	b = append(b, `,"wall":`...)
	b = strconv.AppendInt(b, wall, 10)
	return string(append(b, '}', '\n'))
}

// oracleStream draws random records, emits them through a Tracer (with
// ResumeSeq jumps and a wall clock that walks the int64 range) and returns
// the binary stream with the oracle's JSONL for it.
type oracleStream struct {
	rng   *stats.Stream
	tr    *Tracer
	bin   bytes.Buffer
	jsonl strings.Builder
	seq   uint64
	wall  int64
}

func newOracleStream(seed int64) *oracleStream {
	s := &oracleStream{rng: stats.NewRand(seed)}
	s.tr = NewTracer(&s.bin)
	s.tr.wall = func() int64 { return s.wall }
	return s
}

var (
	oracleFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1.5, 3600,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e21, 1e-7, 0.1, 198.0473546520738}
	oracleStrings = []string{"", "arrival", "decision_moves", `quo"te`, `back\slash`, "tab\there", "nl\n",
		"\x00\x1f\x7f", "é", "\xff\xfe", "0=1.25,3=+Inf", ",\"wall\":9"}
)

func (s *oracleStream) float() float64 {
	if s.rng.Intn(3) == 0 {
		return oracleFloats[s.rng.Intn(len(oracleFloats))]
	}
	return s.rng.NormFloat64() * math.Pow(10, float64(s.rng.Intn(40)-20))
}

func (s *oracleStream) str() string {
	if s.rng.Intn(2) == 0 {
		return oracleStrings[s.rng.Intn(len(oracleStrings))]
	}
	b := make([]byte, s.rng.Intn(12))
	for i := range b {
		b[i] = byte(s.rng.Intn(256))
	}
	return string(b)
}

func (s *oracleStream) int() int64 {
	switch s.rng.Intn(4) {
	case 0:
		return []int64{0, -1, 1, math.MinInt64, math.MaxInt64}[s.rng.Intn(5)]
	case 1:
		return int64(s.rng.Uint64())
	default:
		return int64(s.rng.Intn(2000)) - 1000
	}
}

// compound draws a compound payload and its rendered text.
func (s *oracleStream) compound() ([]byte, string) {
	var payload []byte
	var text strings.Builder
	for n := s.rng.Intn(12); n > 0; n-- {
		switch s.rng.Intn(3) {
		case 0:
			v := s.int()
			payload = CInt(payload, v)
			text.WriteString(strconv.FormatInt(v, 10))
		case 1:
			v := s.float()
			payload = CFloat(payload, v)
			text.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		default:
			c := ",=:|@ azAZ09-+.~!#"[s.rng.Intn(18)]
			payload = append(payload, c)
			text.WriteByte(c)
		}
	}
	return payload, text.String()
}

// record emits one random record and appends the oracle's line for it.
func (s *oracleStream) record(t float64) {
	if s.rng.Intn(10) == 0 {
		s.seq += uint64(s.rng.Intn(1000))
		if err := s.tr.ResumeSeq(s.seq); err != nil {
			panic(err)
		}
	}
	var bin, old []KV
	for n := s.rng.Intn(7); n > 0; n-- {
		k := s.str()
		var kv KV
		switch s.rng.Intn(6) {
		case 0:
			kv = I(k, s.int())
		case 1:
			kv = F(k, s.float())
		case 2:
			kv = S(k, s.str())
		case 3:
			kv = B(k, s.rng.Intn(2) == 0)
		case 4:
			kv = KV{K: k}
		default:
			payload, text := s.compound()
			bin, old = append(bin, C(k, payload)), append(old, S(k, text))
			continue
		}
		bin, old = append(bin, kv), append(old, kv)
	}
	s.wall = s.int()
	event := s.str()
	s.tr.Emit(t, event, bin...)
	s.jsonl.WriteString(oracleLine(s.seq, t, event, s.wall, old))
	s.seq++
}

// TestRenderMatchesOracle renders random binary streams and holds them to
// the frozen JSONL encoder byte for byte: every field kind, the compound
// one included; NaN, ±Inf and −0 as times and values; strings that need
// escapes, invalid UTF-8 and empty ones; empty field lists; runs of equal,
// sign-flipped and bit-different times that exercise the "t" memo; and
// ResumeSeq jumps. A JSONL line in the stream passes through unchanged.
func TestRenderMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := newOracleStream(seed)
		tNow := 0.0
		for i := 0; i < 300; i++ {
			switch s.rng.Intn(4) {
			case 0:
				tNow = s.float()
			case 1:
				tNow = math.Copysign(tNow, -tNow) // -0 after +0, or a sign flip
			}
			s.record(tNow)
		}
		if got, want := rendered(t, s.bin.Bytes()), s.jsonl.String(); got != want {
			t.Fatalf("seed %d: %s", seed, firstDiff(got, want))
		}
		// The oracle's own lines, spliced between the records, pass
		// through: a JSONL head, a binary tail, and a JSONL tail again.
		mixed := append([]byte(s.jsonl.String()), s.bin.Bytes()...)
		mixed = append(mixed, s.jsonl.String()...)
		if got, want := rendered(t, mixed), strings.Repeat(s.jsonl.String(), 3); got != want {
			t.Fatalf("seed %d, mixed: %s", seed, firstDiff(got, want))
		}
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i) + ":\ngot  " + g[i] + "\nwant " + w[i]
		}
	}
	return "got " + strconv.Itoa(len(g)) + " lines, want " + strconv.Itoa(len(w))
}

// TestAppendQuoteMatchesStrconv holds the renderer's quoting fast path to
// strconv.AppendQuote, through a rendered record: every single byte, then
// random strings — arbitrary runes, arbitrary bytes (invalid UTF-8
// included), and strings drawn from an alphabet that mixes the fast path's
// printable ASCII with '"', '\', control characters, DEL and UTF-8
// fragments — as an event name, a key and a value.
func TestAppendQuoteMatchesStrconv(t *testing.T) {
	same := func(s string) bool {
		var bin bytes.Buffer
		tr := NewTracer(&bin)
		fixedWall(tr, 0)
		tr.Emit(0, s, S(s, s))
		var got bytes.Buffer
		if err := Render(&bin, &got); err != nil {
			return false
		}
		q := strconv.Quote(s)
		return got.String() == `{"v":1,"seq":0,"t":0,"event":`+q+`,`+q+`:`+q+`,"wall":0}`+"\n"
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

// TestTimeMemo renders a run of times that repeat, flip sign at zero and
// pass through the quoted non-finite forms, and compares every line with
// one encoded by strconv alone, without the memo. A ResumeSeq in the
// middle moves the clock but must not disturb the memo, a fresh stream's
// first line at t = 0 must still print 0, and a second stream read by the
// same Reader (a resumed tail after its prefix) starts with the memo of
// the first.
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
	tail := NewTracer(&buf) // a resumed run's tracer, the same clock and time
	fixedWall(tail, 7)
	if err := tail.ResumeSeq(seq); err != nil {
		t.Fatal(err)
	}
	tail.Emit(1e-300, "tick", I("i", 9))
	want = append(want, `{"v":1,"seq":`+strconv.FormatUint(seq, 10)+`,"t":1e-300,"event":"tick","i":9,"wall":7}`)
	got := strings.Split(strings.TrimSuffix(rendered(t, buf.Bytes()), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
	if !strings.HasPrefix(got[0], `{"v":1,"seq":0,"t":0,`) || !strings.Contains(got[2], `"t":-0,`) {
		t.Errorf("zero lines: %s / %s", got[0], got[2])
	}
}

// emitAllocCeiling is Tracer.Emit's allocation budget for a record of I,
// F, S, B and C fields on a warm tracer: the record is encoded into the
// tracer's own buffer, so nothing is allocated.
const emitAllocCeiling = 0

func TestEmitAllocBudget(t *testing.T) {
	tr := NewTracer(io.Discard)
	now := 3600.0
	var moves []byte
	for _, v := range []int64{3, 0, 1, 1} {
		moves = append(CInt(moves, v), ':')
	}
	moves = append(CFloat(moves, 1.13), '@')
	moves = CFloat(append(CInt(moves, 1), '='), math.Inf(1))
	emit := func() {
		now += 0.5
		tr.Emit(now, "decision_moves",
			I("call", 12), F("gain", 1.0625), F("rescue", math.Inf(1)),
			C("moves", moves), S("note", `quo"te`), B("timed", true))
	}
	emit()
	if allocs := testing.AllocsPerRun(1000, emit); allocs > emitAllocCeiling {
		t.Errorf("Emit allocates %.1f times a record, budget %d", allocs, emitAllocCeiling)
	}
}

// record is one well-formed binary record, for the damage tests.
func record(t *testing.T, fields ...KV) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	fixedWall(tr, 1)
	tr.Emit(1.5, "ev", fields...)
	return buf.Bytes()
}

// TestRenderNamesDamage: each way a stream can be damaged fails with its
// own error, never a panic and never a shorter clean stream.
func TestRenderNamesDamage(t *testing.T) {
	good := record(t, I("vm", 7), C("alts", CFloat(append(CInt(nil, 1), '='), 0.5)), S("s", "x"))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	var overlong []byte
	overlong = append(overlong, recordTag)
	overlong = append(overlong, bytes.Repeat([]byte{0xff}, 10)...)
	overlong = append(overlong, 0x01)
	line := []byte(`{"v":1,"seq":0,"t":0,"event":"x","wall":1}`)
	// A record of 3 Mi empty-keyed true fields: 6 MiB in, 27 MiB rendered.
	wide := binary.AppendUvarint(append(make([]byte, 0, 7<<20), recordTag, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 3<<20)
	for i := 0; i < 3<<20; i++ {
		wide = append(wide, 0, kindTrue)
	}
	wide = append(wide, 0)
	for _, c := range []struct {
		name  string
		input []byte
		want  error
	}{
		{"truncated", good[:len(good)-1], ErrTruncated},
		{"truncated after the tag", good[:1], ErrTruncated},
		{"truncated at a kind", good[:bytes.Index(good, []byte("vm"))+2], ErrTruncated},
		{"unknown tag", cat(good, []byte{0x7f}), ErrTag},
		{"unknown kind", bytes.Replace(good, []byte("vmi"), []byte("vm?"), 1), ErrKind},
		{"unknown compound item", bytes.Replace(good, []byte{'=', itemFloat}, []byte{'"', itemFloat}, 1), ErrKind},
		{"length past the end", good[:bytes.Index(good, []byte("alts"))+6], ErrLength},
		{"length over the limit", cat(good[:bytes.Index(good, []byte("ev"))-1], []byte{0xff, 0xff, 0xff, 0x7f}), ErrLength},
		{"overlong varint", overlong, ErrVarint},
		{"record over the limit", wide, ErrLength},
		{"binary mid-line", cat(line, good, []byte("\n")), ErrMixed},
		{"JSONL mid-record", cat(good[:5], line), ErrLength},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := Render(bytes.NewReader(c.input), io.Discard)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if !strings.Contains(err.Error(), "record ") {
				t.Errorf("error %q does not say where", err)
			}
		})
	}
	if err := Render(bytes.NewReader(cat(good, []byte("\r\n \t"), line, []byte("\r\n"), good)), io.Discard); err != nil {
		t.Errorf("whitespace between records: %v", err)
	}
}

// FuzzRender feeds the renderer hostile bytes. It must never panic; a
// failure must be one of the named errors; and what it renders is JSONL
// that renders to itself.
func FuzzRender(f *testing.F) {
	s := newOracleStream(99)
	for i := 0; i < 8; i++ {
		s.record(float64(i / 2))
	}
	f.Add(s.bin.Bytes())
	f.Add([]byte(s.jsonl.String()))
	f.Fuzz(func(t *testing.T, in []byte) {
		var out bytes.Buffer
		err := Render(bytes.NewReader(in), &out)
		if err != nil {
			for _, named := range []error{ErrTruncated, ErrTag, ErrKind, ErrLength, ErrVarint, ErrMixed} {
				if errors.Is(err, named) {
					return
				}
			}
			t.Fatalf("unnamed error: %v", err)
		}
		var again bytes.Buffer
		if err := Render(bytes.NewReader(out.Bytes()), &again); err != nil || !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("rendered output does not render to itself (%v):\n%q\n%q", err, out.Bytes(), again.Bytes())
		}
	})
}
