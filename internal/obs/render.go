package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// wallKey is the one wall-clock field a trace line may carry. It is
// always the final key of the line, which is what makes CanonicalLine a
// simple suffix cut rather than a JSON round-trip.
const wallKey = `,"wall":`

// maxLen bounds every length a stream may declare — a string, a compound
// payload, a JSONL line — and the line a record renders to, so hostile
// bytes cannot ask for an allocation the input does not back.
const maxLen = 16 << 20

// The ways a stream can be damaged. Reader.Next wraps each with the
// record's position, so errors.Is names the damage and the message says
// where it is.
var (
	ErrTruncated = errors.New("truncated record")
	ErrTag       = errors.New("unknown record tag")
	ErrKind      = errors.New("unknown field kind")
	ErrLength    = errors.New("length past the end")
	ErrVarint    = errors.New("overlong varint")
	ErrMixed     = errors.New("binary bytes in a JSONL line")
)

// Reader reads a trace or decision stream one record at a time and
// returns each as a JSONL line. It detects the form per record: a record
// that starts with '{' is a JSONL line and passes through unchanged, one
// that starts with the record tag is binary and is rendered, and
// whitespace between records is skipped. So a stream this tree writes, a
// JSONL file an older one wrote, and a concatenation of the two all read
// the same way.
type Reader struct {
	r    *bufio.Reader
	line []byte // the line Next returns
	str  []byte // a length-prefixed string being read
	off  int64  // bytes consumed
	n    int    // records returned

	// tBits and tText memoize the last rendered "t": most records repeat
	// their predecessor's time. The key is the float's bits, not its
	// value, because -0 and +0 compare equal but format differently; an
	// empty tText means nothing is memoized yet.
	tBits uint64
	tText []byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16), line: make([]byte, 0, 512)}
}

// Next returns the next record as one JSONL line without its newline. The
// line is valid until the following call. At the end of the stream Next
// returns io.EOF; a damaged record is an error wrapping one of ErrTruncated,
// ErrTag, ErrKind, ErrLength, ErrVarint or ErrMixed.
func (rd *Reader) Next() ([]byte, error) {
	for {
		c, err := rd.r.ReadByte()
		if err != nil {
			return nil, err // io.EOF between records: the clean end
		}
		rd.off++
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			rd.line = append(rd.line[:0], c)
			err = rd.readLine()
		case recordTag:
			err = rd.render()
		default:
			err = fmt.Errorf("%w 0x%02x", ErrTag, c)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: record %d (byte %d): %w", rd.n+1, rd.off, err)
		}
		rd.n++
		return rd.line, nil
	}
}

// readLine reads the rest of a JSONL line. A control byte other than a
// tab cannot occur in a JSON text, so one is binary written into the line.
func (rd *Reader) readLine() error {
	for {
		chunk, err := rd.r.ReadSlice('\n')
		rd.off += int64(len(chunk))
		rd.line = append(rd.line, chunk...)
		if len(rd.line) > maxLen {
			return fmt.Errorf("%w: JSONL line over %d bytes", ErrLength, maxLen)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && err != io.EOF {
			return err
		}
		break
	}
	rd.line = bytes.TrimRight(rd.line, "\r\n")
	for _, c := range rd.line {
		if c < ' ' && c != '\t' {
			return fmt.Errorf("%w: byte 0x%02x", ErrMixed, c)
		}
	}
	return nil
}

// render reads one binary record (its tag already consumed) and renders it
// into rd.line, byte for byte the line the JSONL encoder wrote.
func (rd *Reader) render() error {
	seq, err := rd.uvarint()
	if err != nil {
		return err
	}
	tBits, err := rd.fixed64()
	if err != nil {
		return err
	}
	b := append(rd.line[:0], `{"v":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"t":`...)
	if tBits != rd.tBits || len(rd.tText) == 0 {
		n := len(b)
		b = appendFloat(b, math.Float64frombits(tBits))
		rd.tBits, rd.tText = tBits, append(rd.tText[:0], b[n:]...)
	} else {
		b = append(b, rd.tText...)
	}
	b = append(b, `,"event":`...)
	if b, err = rd.quoted(b); err != nil {
		return err
	}
	fields, err := rd.uvarint()
	if err != nil {
		return err
	}
	for ; fields > 0; fields-- {
		if len(b) > maxLen {
			return fmt.Errorf("%w: record renders to over %d bytes", ErrLength, maxLen)
		}
		b = append(b, ',')
		if b, err = rd.quoted(b); err != nil {
			return err
		}
		b = append(b, ':')
		kind, err := rd.r.ReadByte()
		if err != nil {
			return ErrTruncated
		}
		rd.off++
		switch kind {
		case kindInt:
			v, err := rd.varint()
			if err != nil {
				return err
			}
			b = strconv.AppendInt(b, v, 10)
		case kindFloat:
			v, err := rd.fixed64()
			if err != nil {
				return err
			}
			b = appendFloat(b, math.Float64frombits(v))
		case kindString:
			if b, err = rd.quoted(b); err != nil {
				return err
			}
		case kindCompound:
			if err := rd.lenPrefixed(); err != nil {
				return err
			}
			if b, err = appendCompound(b, rd.str); err != nil {
				return err
			}
		case kindTrue:
			b = append(b, "true"...)
		case kindFalse:
			b = append(b, "false"...)
		case kindNull:
			b = append(b, "null"...)
		default:
			return fmt.Errorf("%w 0x%02x", ErrKind, kind)
		}
	}
	wall, err := rd.varint()
	if err != nil {
		return err
	}
	b = append(b, wallKey...)
	b = strconv.AppendInt(b, wall, 10)
	rd.line = append(b, '}')
	return nil
}

// appendCompound renders a compound payload as a JSON string.
func appendCompound(b, p []byte) ([]byte, error) {
	b = append(b, '"')
	for len(p) > 0 {
		c := p[0]
		p = p[1:]
		switch {
		case c == itemInt:
			v, n := binary.Varint(p)
			if n == 0 {
				return b, fmt.Errorf("%w: compound int", ErrTruncated)
			}
			if n < 0 {
				return b, fmt.Errorf("%w: compound int", ErrVarint)
			}
			b, p = strconv.AppendInt(b, v, 10), p[n:]
		case c == itemFloat:
			if len(p) < 8 {
				return b, fmt.Errorf("%w: compound float", ErrTruncated)
			}
			b = strconv.AppendFloat(b, math.Float64frombits(binary.LittleEndian.Uint64(p)), 'g', -1, 64)
			p = p[8:]
		case c >= ' ' && c <= '~' && c != '"' && c != '\\':
			b = append(b, c)
		default:
			return b, fmt.Errorf("%w: compound item 0x%02x", ErrKind, c)
		}
	}
	return append(b, '"'), nil
}

// uvarint reads an unsigned varint of at most binary.MaxVarintLen64 bytes.
func (rd *Reader) uvarint() (uint64, error) {
	var x uint64
	for i, s := 0, uint(0); i < binary.MaxVarintLen64; i, s = i+1, s+7 {
		c, err := rd.r.ReadByte()
		if err != nil {
			return 0, ErrTruncated
		}
		rd.off++
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, ErrVarint
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
	}
	return 0, ErrVarint
}

// varint reads a zig-zag varint.
func (rd *Reader) varint() (int64, error) {
	ux, err := rd.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// fixed64 reads 8 little-endian bytes.
func (rd *Reader) fixed64() (uint64, error) {
	var p [8]byte
	if _, err := io.ReadFull(rd.r, p[:]); err != nil {
		return 0, ErrTruncated
	}
	rd.off += 8
	return binary.LittleEndian.Uint64(p[:]), nil
}

// lenPrefixed reads a length-prefixed byte string into rd.str. The buffer
// grows with what arrives, not with what the length claims.
func (rd *Reader) lenPrefixed() error {
	n, err := rd.uvarint()
	if err != nil {
		return err
	}
	if n > maxLen {
		return fmt.Errorf("%w: length %d over %d", ErrLength, n, maxLen)
	}
	rd.str = rd.str[:0]
	for len(rd.str) < int(n) {
		have := len(rd.str)
		rd.str = slices.Grow(rd.str, min(int(n)-have, 1<<16))
		rd.str = rd.str[:min(int(n), cap(rd.str))]
		got, err := io.ReadFull(rd.r, rd.str[have:])
		rd.off += int64(got)
		if err != nil {
			return fmt.Errorf("%w: length %d, only %d bytes left", ErrLength, n, have+got)
		}
	}
	return nil
}

// quoted reads a length-prefixed string and appends it to b as a JSON
// string.
func (rd *Reader) quoted(b []byte) ([]byte, error) {
	if err := rd.lenPrefixed(); err != nil {
		return b, err
	}
	return appendQuote(b, rd.str), nil
}

// Render reads a trace or decision stream — binary records, JSONL lines,
// or both — and writes it to w as JSONL, one line a record. It is the one
// JSONL encoder: a binary record renders to the line the run would have
// written as text, "wall" included.
func Render(r io.Reader, w io.Writer) error {
	return copyLines(r, w, false)
}

// Canonicalize is Render with every line's wall-clock field stripped.
// After this, two same-seed runs' traces are byte-identical — the
// property the golden-trace test and `tracestat -diff` assert.
func Canonicalize(r io.Reader, w io.Writer) error {
	return copyLines(r, w, true)
}

func copyLines(r io.Reader, w io.Writer, canonical bool) error {
	rd := NewReader(r)
	bw := bufio.NewWriterSize(w, 1<<16)
	for {
		line, err := rd.Next()
		if err == io.EOF {
			return bw.Flush()
		}
		if err != nil {
			return err
		}
		if canonical {
			line = cutWall(line)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
}

// cutWall is CanonicalLine without the copy: line with its final wall
// field cut, the closing brace kept.
func cutWall(line []byte) []byte {
	if i := bytes.LastIndex(line, []byte(wallKey)); i >= 0 && bytes.HasSuffix(line, []byte("}")) {
		line[i] = '}'
		return line[:i+1]
	}
	return line
}

// CanonicalLine strips the wall-clock field from one JSONL trace line,
// returning the determinism-comparable form in a new slice. Lines without
// a wall field are returned unchanged (minus any trailing newline).
func CanonicalLine(line []byte) []byte {
	return cutWall(append([]byte(nil), bytes.TrimRight(line, "\r\n")...))
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
func appendQuote[S ~string | ~[]byte](b []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, string(s))
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
