package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// streamLine is one line of the NDJSON stream a "mode": "stream" query
// answers with: a header carrying the variable order, one row per result
// tuple, then a summary trailer — or an error line if the query fails
// mid-stream (the HTTP status is already out by then, which is the
// standard NDJSON trade). Exactly one field is set per line. The writer
// below and ReadStream share this one shape, so what a shard streams and
// what a coordinator parses cannot drift.
type streamLine struct {
	Order   *[]string      `json:"order,omitempty"`
	Row     *[]int64       `json:"row,omitempty"`
	Summary *StreamSummary `json:"summary,omitempty"`
	Error   *string        `json:"error,omitempty"`
}

// streamFlushEvery is the NDJSON row interval between explicit flushes
// on dense streams: frequent enough that consumers see rows while the
// join runs, rare enough that flushing does not dominate large
// results. Sparse streams flush on time instead (streamFlushAfter), so
// a slow producer's rows are not held hostage by the row counter.
const streamFlushEvery = 128

// streamFlushAfter is the longest a buffered row waits before the next
// flush regardless of the row counter.
const streamFlushAfter = 100 * time.Millisecond

// maxStreamLine bounds one NDJSON line ReadStream accepts (a row of a
// very wide query still fits comfortably).
const maxStreamLine = 1 << 20

// streamWriter writes one NDJSON stream and owns its flush pacing.
type streamWriter struct {
	// mu serializes the scan (encoding rows) with the background flusher
	// that drains buffered rows when the scan goes quiet — without it, a
	// burst of rows under the per-row flush threshold followed by a long
	// matchless stretch would sit in the HTTP buffer until the trailer.
	mu      sync.Mutex
	w       io.Writer
	enc     *json.Encoder // the order, summary and error lines, and a nil row
	line    []byte        // a row line, reused: rows are written without reflection
	flusher http.Flusher  // nil when flushing cannot reach a client
	rows    int64
	dirty   bool
	stop    chan struct{}
	done    chan struct{}
}

// newStreamWriter starts a stream on w; the caller must close it. The
// background flusher only earns its ticker when w can flush.
func newStreamWriter(w io.Writer) *streamWriter {
	sw := &streamWriter{w: w, enc: json.NewEncoder(w)}
	if sw.flusher, _ = w.(http.Flusher); sw.flusher != nil {
		sw.stop, sw.done = make(chan struct{}), make(chan struct{})
		go sw.tick()
	}
	return sw
}

func (sw *streamWriter) tick() {
	defer close(sw.done)
	tick := time.NewTicker(streamFlushAfter)
	defer tick.Stop()
	for {
		select {
		case <-sw.stop:
			return
		case <-tick.C:
			sw.mu.Lock()
			if sw.dirty {
				sw.flush()
			}
			sw.mu.Unlock()
		}
	}
}

// close stops the background flusher and waits for it to exit.
func (sw *streamWriter) close() {
	if sw.stop != nil {
		close(sw.stop)
		<-sw.done
	}
}

func (sw *streamWriter) flush() { // callers hold mu
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	sw.dirty = false
}

// write encodes one line and flushes it now, or leaves it to the pacing.
func (sw *streamWriter) write(line streamLine, now bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	_ = sw.enc.Encode(line) // the status line is out; the client sees a short stream
	sw.paced(now)
}

// paced flushes now or marks the stream dirty for the ticker; callers
// hold mu.
func (sw *streamWriter) paced(now bool) {
	if now {
		sw.flush()
	} else {
		sw.dirty = true
	}
}

func (sw *streamWriter) order(order []string) { sw.write(streamLine{Order: &order}, true) }

// row writes {"row":[a,b,c]} — the bytes json.Encoder writes for the
// same row, without its reflection or a heap object per row.
func (sw *streamWriter) row(mu []int64) bool {
	sw.rows++
	now := sw.rows%streamFlushEvery == 0
	if mu == nil {
		sw.nullRow(mu, now)
		return true
	}
	sw.mu.Lock()
	sw.line = appendRowLine(sw.line[:0], mu)
	_, _ = sw.w.Write(sw.line) // as for the encoder's lines: the client sees a short stream
	sw.paced(now)
	sw.mu.Unlock()
	return true
}

// nullRow writes a nil row the way the encoder always has ({"row":null}).
// It is its own function so that taking mu's address here does not move
// every row's slice header to the heap.
func (sw *streamWriter) nullRow(mu []int64, now bool) { sw.write(streamLine{Row: &mu}, now) }

// appendRowLine appends the canonical row line for a non-nil mu.
func appendRowLine(b []byte, mu []int64) []byte {
	b = append(b, `{"row":`...)
	b = appendInts(b, mu)
	return append(b, "}\n"...)
}

func (sw *streamWriter) summary(sum StreamSummary) { sw.write(streamLine{Summary: &sum}, true) }

func (sw *streamWriter) fail(err error) {
	msg := err.Error()
	sw.write(streamLine{Error: &msg}, true)
}

// ReadStream decodes one NDJSON stream as the "mode": "stream" handler
// writes it: header is invoked with the variable order (may be nil),
// row per result tuple (reused slice — copy to retain; return false to
// stop: a normal completion whose summary counts the rows delivered so
// far), and the trailer's summary is returned. The bytes are untrusted
// — a coordinator reads its shards through this — so a stream that ends
// without a trailer, carries an error line, continues past its trailer
// or holds a malformed or oversized line is an error, never a short
// success.
//
// A row line in the writer's canonical spelling (parseRowLine) is
// decoded without reflection; every other line — and so every
// rejection and its text — goes through json.Unmarshal.
func ReadStream(r io.Reader, header func(order []string), row func(mu []int64) bool) (StreamSummary, error) {
	var sum StreamSummary
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamLine)
	mu := make([]int64, 0, 8) // never nil: an empty row reads back as empty, not nil
	done := false
	var err error
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line streamLine
		if vals, ok := parseRowLine(mu[:0], sc.Bytes()); ok {
			mu = vals
			line.Row = &mu
		} else if line, err = decodeLine(sc.Bytes()); err != nil {
			return sum, fmt.Errorf("server: bad stream line: %w", err)
		}
		switch {
		case done:
			return sum, errors.New("server: stream continues past its summary trailer")
		case line.Error != nil:
			return sum, errors.New(*line.Error)
		case line.Summary != nil:
			sum, done = *line.Summary, true
		case line.Row != nil:
			sum.Count++ // a consumer stop still counts the delivered row
			if !row(*line.Row) {
				return sum, nil
			}
		case line.Order != nil && header != nil:
			header(*line.Order)
		}
	}
	if err = sc.Err(); err != nil {
		return sum, err
	}
	if !done {
		return sum, errors.New("server: stream ended without a summary trailer")
	}
	return sum, nil
}

// decodeLine is json.Unmarshal into a fresh line, in its own function so
// that only the lines taking this path pay for the line escaping.
func decodeLine(b []byte) (line streamLine, err error) {
	err = json.Unmarshal(b, &line)
	return line, err
}

// parseRowLine decodes b if it is exactly the writer's row line —
// {"row":[ then JSON integers (optional '-', no leading zero, within
// int64) separated by ',' then ]} — appending the values to mu. Any
// other spelling reports false, and the caller hands the line to
// json.Unmarshal, so a line this accepts is one json.Unmarshal accepts
// with the same values (FuzzStreamRowCodec), and no line is rejected
// here rather than there.
func parseRowLine(mu []int64, b []byte) ([]int64, bool) {
	const prefix, suffix = `{"row":[`, "]}"
	if !bytes.HasPrefix(b, []byte(prefix)) || !bytes.HasSuffix(b, []byte(suffix)) || len(b) < len(prefix)+len(suffix) {
		return mu, false
	}
	b = b[len(prefix) : len(b)-len(suffix)]
	if len(b) == 0 {
		return mu, true
	}
	for {
		neg := len(b) > 0 && b[0] == '-'
		if neg {
			b = b[1:]
		}
		n := 0
		for n < len(b) && '0' <= b[n] && b[n] <= '9' {
			n++
		}
		// At most 19 digits, so the magnitude cannot wrap a uint64.
		if n == 0 || n > 19 || n > 1 && b[0] == '0' {
			return mu, false
		}
		var m uint64
		for _, c := range b[:n] {
			m = m*10 + uint64(c-'0')
		}
		switch {
		case neg && m > 1<<63:
			return mu, false
		case neg:
			mu = append(mu, int64(-m))
		case m > math.MaxInt64:
			return mu, false
		default:
			mu = append(mu, int64(m))
		}
		if b = b[n:]; len(b) == 0 {
			return mu, true
		}
		if b[0] != ',' {
			return mu, false
		}
		b = b[1:]
	}
}
