package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"
)

// SchemaVersion is the trace event schema version, carried by every event
// as "v". Bump it when an event's field set changes meaning.
const SchemaVersion = 1

// wallKey is the one wall-clock field a trace line may carry. It is
// always the final key of the line, which is what makes CanonicalLine a
// simple suffix cut rather than a JSON round-trip.
const wallKey = `,"wall":`

// KV is one typed event field. Construct with I, F, S, or B.
type KV struct {
	K    string
	kind byte // 'i', 'f', 's', 'b'
	i    int64
	f    float64
	s    string
}

// I is an integer field.
func I(k string, v int64) KV { return KV{K: k, kind: 'i', i: v} }

// F is a float field.
func F(k string, v float64) KV { return KV{K: k, kind: 'f', f: v} }

// S is a string field.
func S(k, v string) KV { return KV{K: k, kind: 's', s: v} }

// B is a boolean field.
func B(k string, v bool) KV {
	var i int64
	if v {
		i = 1
	}
	return KV{K: k, kind: 'b', i: i}
}

// Tracer writes schema-versioned JSONL run events. Each event carries a
// logical clock ("seq", the emission index), the simulation time ("t"),
// the event type, the caller's fields in call order, and finally the
// wall-clock timestamp ("wall", Unix nanoseconds). Field order is fixed
// by construction — the encoder is hand-rolled, not reflective — so two
// identical runs produce byte-identical traces once "wall" is stripped.
//
// Emit is safe for concurrent use (a mutex orders lines), though the
// simulator itself is single-threaded per run.
type Tracer struct {
	mu   sync.Mutex
	w    io.Writer
	buf  []byte
	seq  uint64
	err  error
	wall func() int64 // injectable for tests

	// tBits and tText memoize the last line's formatted "t": most lines
	// repeat their predecessor's time. The key is the float's bits, not
	// its value, because -0 and +0 compare equal but format differently;
	// an empty tText means nothing is memoized yet.
	tBits uint64
	tText []byte
}

// NewTracer returns a tracer writing to w. The line buffer is
// preallocated so steady-state emission reallocates only for lines that
// outgrow every predecessor.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{
		w:    w,
		buf:  make([]byte, 0, 512),
		wall: func() int64 { return time.Now().UnixNano() },
	}
}

// Emit writes one event line.
func (tr *Tracer) Emit(t float64, event string, fields ...KV) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b := tr.buf[:0]
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, tr.seq, 10)
	b = append(b, `,"t":`...)
	if bits := math.Float64bits(t); bits != tr.tBits || len(tr.tText) == 0 {
		n := len(b)
		b = appendFloat(b, t)
		tr.tBits, tr.tText = bits, append(tr.tText[:0], b[n:]...)
	} else {
		b = append(b, tr.tText...)
	}
	b = append(b, `,"event":`...)
	b = appendQuote(b, event)
	for _, kv := range fields {
		b = append(b, ',')
		b = appendQuote(b, kv.K)
		b = append(b, ':')
		switch kv.kind {
		case 'i':
			b = strconv.AppendInt(b, kv.i, 10)
		case 'f':
			b = appendFloat(b, kv.f)
		case 's':
			b = appendQuote(b, kv.s)
		case 'b':
			if kv.i != 0 {
				b = append(b, "true"...)
			} else {
				b = append(b, "false"...)
			}
		default:
			b = append(b, "null"...)
		}
	}
	b = append(b, wallKey...)
	b = strconv.AppendInt(b, tr.wall(), 10)
	b = append(b, '}', '\n')
	tr.buf = b
	tr.seq++
	if tr.err == nil {
		_, tr.err = tr.w.Write(b)
	}
}

// ResumeSeq fast-forwards the logical clock to seq, so a tracer opened
// after a checkpoint restore numbers its first event exactly where the
// interrupted run's tracer stopped. Concatenating the interrupted trace
// with the resumed one then reproduces the uninterrupted trace
// byte-for-byte (canonically). Rewinding an already-advanced clock is
// refused — it would mint duplicate sequence numbers.
func (tr *Tracer) ResumeSeq(seq uint64) error {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.seq > seq {
		return fmt.Errorf("obs: cannot rewind trace clock from %d to %d", tr.seq, seq)
	}
	tr.seq = seq
	return nil
}

// Events returns the number of events emitted so far.
func (tr *Tracer) Events() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.seq
}

// Err returns the first write error, if any.
func (tr *Tracer) Err() error {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.err
}

// TraceFile is a Tracer streaming its JSONL lines to a file through a
// write buffer: the sink behind every -trace and -decisions flag.
type TraceFile struct {
	*Tracer
	f *os.File
	w *bufio.Writer
}

// CreateTrace creates (or truncates) the file at path and returns a
// tracer writing to it. The caller must Close it, after a failed run too:
// a trace that ends at an audit violation or a checkpoint is exactly the
// one worth reading.
func CreateTrace(path string) (*TraceFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	return &TraceFile{Tracer: NewTracer(w), f: f, w: w}, nil
}

// Close flushes the buffer and closes the file. It returns the first
// failure among the flush, any write the tracer saw fail, and the close.
func (t *TraceFile) Close() error {
	err := t.w.Flush()
	if err == nil {
		err = t.Err()
	}
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendFloat formats a float as shortest-round-trip JSON. NaN and
// infinities (never produced by a healthy run) are quoted so the line
// stays valid JSON; their forms ("NaN", "+Inf", "-Inf") need no escaping.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b = append(b, '"')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		return append(b, '"')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendQuote is strconv.AppendQuote with a fast path for what trace keys,
// event names and most values are: printable ASCII with no '"' and no '\',
// which strconv would copy between quotes unchanged. Any other string goes
// to strconv, so the bytes are strconv's either way.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// CanonicalLine strips the wall-clock field from one trace line, returning
// the determinism-comparable form. Lines without a wall field are returned
// unchanged (minus any trailing newline).
func CanonicalLine(line []byte) []byte {
	line = bytes.TrimRight(line, "\r\n")
	if i := bytes.LastIndex(line, []byte(wallKey)); i >= 0 && bytes.HasSuffix(line, []byte("}")) {
		out := append([]byte(nil), line[:i]...)
		return append(out, '}')
	}
	return append([]byte(nil), line...)
}

// Canonicalize streams a JSONL trace from r to w with every line's
// wall-clock field stripped. After this, two same-seed runs' traces are
// byte-identical — the property the golden-trace test and
// `tracestat -diff` assert.
func Canonicalize(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	bw := bufio.NewWriter(w)
	for sc.Scan() {
		if _, err := bw.Write(CanonicalLine(sc.Bytes())); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return bw.Flush()
}
