package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"
)

// SchemaVersion is the trace event schema version, carried by every event
// as "v". Bump it when an event's field set changes meaning.
const SchemaVersion = 1

// The binary record layout (DESIGN §9). A record is
//
//	recordTag, seq (uvarint), t (8 bytes, little-endian float64 bits),
//	event (uvarint length + bytes), field count (uvarint),
//	per field: key (uvarint length + bytes), kind byte, value,
//	wall (zig-zag varint)
//
// where a value is a zig-zag varint (kindInt), 8 raw bytes (kindFloat),
// uvarint length + bytes (kindString, kindCompound) or nothing (kindTrue,
// kindFalse, kindNull). A record carries no state over from the one before
// it, so streams concatenate: a checkpoint prefix followed by its resumed
// tail is one valid stream.
const (
	recordTag    byte = 0x1e // ASCII record separator; a JSONL line starts with '{'
	kindNull     byte = 0    // a KV built without a constructor; renders null
	kindInt      byte = 'i'
	kindFloat    byte = 'f'
	kindString   byte = 's'
	kindTrue     byte = 'T'
	kindFalse    byte = 'F'
	kindCompound byte = 'c'
)

// The items of a compound payload (C, CInt, CFloat): a tagged varint, a
// tagged float, or one literal byte — printable ASCII other than '"' and
// '\', so a rendered compound never needs escaping.
const (
	itemInt   byte = 0x01
	itemFloat byte = 0x02
)

// KV is one typed event field. Construct with I, F, S, B or C.
type KV struct {
	K    string
	kind byte
	n    int64 // kindInt: the value; kindFloat: its bits
	s    string
	c    []byte
}

// I is an integer field.
func I(k string, v int64) KV { return KV{K: k, kind: kindInt, n: v} }

// F is a float field.
func F(k string, v float64) KV { return KV{K: k, kind: kindFloat, n: int64(math.Float64bits(v))} }

// S is a string field.
func S(k, v string) KV { return KV{K: k, kind: kindString, s: v} }

// B is a boolean field.
func B(k string, v bool) KV {
	if v {
		return KV{K: k, kind: kindTrue}
	}
	return KV{K: k, kind: kindFalse}
}

// C is a compound field: a payload built with CInt, CFloat and literal
// separator bytes, rendered as one JSON string — each int in decimal, each
// float in strconv's shortest 'g' form, each separator as itself. The
// decision log's "alts" and "moves" are compound fields. Emit copies the
// payload, so the caller may reuse its buffer at once.
func C(k string, payload []byte) KV { return KV{K: k, kind: kindCompound, c: payload} }

// CInt appends an integer item to a compound payload.
func CInt(b []byte, v int64) []byte {
	return binary.AppendVarint(append(b, itemInt), v)
}

// CFloat appends a float item to a compound payload.
func CFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, itemFloat), math.Float64bits(v))
}

// epoch is the process's clock origin. Spans and the tracer's wall clock
// read time.Since(epoch), which is one monotonic clock read, where
// time.Now reads the realtime clock as well.
var (
	epoch     = time.Now()
	epochUnix = epoch.UnixNano()
)

// monoNS is the monotonic nanoseconds since epoch.
func monoNS() int64 { return int64(time.Since(epoch)) }

// Tracer writes schema-versioned run events as binary records, one Write
// a record. Each event carries a logical clock ("seq", the emission
// index), the simulation time ("t"), the event type, the caller's fields
// in call order, and finally the wall-clock timestamp ("wall", Unix
// nanoseconds). Nothing is formatted on this path: Render turns the
// records into JSONL lines when the stream is read, and two identical
// runs render byte-identical traces once "wall" is stripped.
//
// Emit is safe for concurrent use (a mutex orders records), though the
// simulator itself is single-threaded per run.
type Tracer struct {
	mu   sync.Mutex
	w    io.Writer
	buf  []byte
	seq  uint64
	err  error
	wall func() int64 // injectable for tests
}

// NewTracer returns a tracer writing to w. The record buffer is
// preallocated so steady-state emission reallocates only for records that
// outgrow every predecessor.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{
		w:    w,
		buf:  make([]byte, 0, 512),
		wall: func() int64 { return epochUnix + monoNS() },
	}
}

// Emit writes one event record.
func (tr *Tracer) Emit(t float64, event string, fields ...KV) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	b := append(tr.buf[:0], recordTag)
	b = binary.AppendUvarint(b, tr.seq)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	b = appendBytes(b, event)
	b = binary.AppendUvarint(b, uint64(len(fields)))
	for i := range fields {
		kv := &fields[i]
		b = appendBytes(b, kv.K)
		b = append(b, kv.kind)
		switch kv.kind {
		case kindInt:
			b = binary.AppendVarint(b, kv.n)
		case kindFloat:
			b = binary.LittleEndian.AppendUint64(b, uint64(kv.n))
		case kindString:
			b = appendBytes(b, kv.s)
		case kindCompound:
			b = binary.AppendUvarint(b, uint64(len(kv.c)))
			b = append(b, kv.c...)
		}
	}
	b = binary.AppendVarint(b, tr.wall())
	tr.buf = b
	tr.seq++
	if tr.err == nil {
		_, tr.err = tr.w.Write(b)
	}
	tr.mu.Unlock()
}

// appendBytes appends s with its uvarint length.
func appendBytes(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
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

// TraceFile is a Tracer streaming its records to a file through a write
// buffer: the sink behind every -trace and -decisions flag.
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
