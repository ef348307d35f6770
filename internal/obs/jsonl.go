package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// JSONLWriter is a Tracer writing one JSON object per event to an
// io.Writer. It serializes by hand into a reused buffer — no
// encoding/json, no reflection — so tracing a hot query does not turn
// into an allocation storm; a mutex makes it safe for the parallel
// engine's workers.
type JSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONLWriter returns a tracer writing JSON lines to w. Call Flush
// (or Err, which flushes) when done; the writer does not own w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// Event implements Tracer.
func (j *JSONLWriter) Event(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b := j.buf[:0]
	b = append(b, `{"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","span":`...)
	b = strconv.AppendUint(b, e.Span, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"ns":`...)
	b = strconv.AppendInt(b, e.Nanos, 10)
	if e.Level != 0 || e.Level2 != 0 {
		b = append(b, `,"level":`...)
		b = strconv.AppendInt(b, int64(e.Level), 10)
		b = append(b, `,"level2":`...)
		b = strconv.AppendInt(b, int64(e.Level2), 10)
	}
	if e.Source != SourceNone {
		b = append(b, `,"source":"`...)
		b = append(b, e.Source.String()...)
		b = append(b, '"')
	}
	if e.Kind == EvBoundTightened {
		b = append(b, `,"old":`...)
		b = appendJSONFloat(b, e.Old)
	}
	if e.Kind == EvBoundTightened || e.Kind == EvNodeExpanded || e.Kind == EvQueryEnd {
		b = append(b, `,"new":`...)
		b = appendJSONFloat(b, e.New)
	}
	if e.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, e.N, 10)
	}
	if e.Label != "" {
		b = append(b, `,"label":`...)
		b = appendJSONString(b, e.Label)
	}
	b = append(b, "}\n"...)
	j.buf = b
	if _, err := j.w.Write(b); err != nil {
		j.err = err
	}
}

// appendJSONFloat renders a float64 as a JSON number. JSON has no Inf or
// NaN; the engine's bounds start at +Inf, so map non-finite values to
// null (valid JSON, unambiguous on replay).
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308 {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString renders a JSON string with the required escapes.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// Flush drains buffered lines to the underlying writer.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// Err flushes and returns the first write error, if any.
func (j *JSONLWriter) Err() error { return j.Flush() }
