package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	enc     *json.Encoder
	flusher http.Flusher // nil when flushing cannot reach a client
	rows    int64
	dirty   bool
	stop    chan struct{}
	done    chan struct{}
}

// newStreamWriter starts a stream on w; the caller must close it. The
// background flusher only earns its ticker when w can flush.
func newStreamWriter(w io.Writer) *streamWriter {
	sw := &streamWriter{enc: json.NewEncoder(w)}
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
	if now {
		sw.flush()
	} else {
		sw.dirty = true
	}
}

func (sw *streamWriter) order(order []string) { sw.write(streamLine{Order: &order}, true) }

func (sw *streamWriter) row(mu []int64) bool {
	sw.rows++
	sw.write(streamLine{Row: &mu}, sw.rows%streamFlushEvery == 0)
	return true
}

func (sw *streamWriter) summary(sum StreamSummary) { sw.write(streamLine{Summary: &sum}, true) }

func (sw *streamWriter) fail(err error) {
	msg := err.Error()
	sw.write(streamLine{Error: &msg}, true)
}

// ReadStream decodes one NDJSON stream as the "mode": "stream" handler
// writes it: header is invoked with the variable order (may be nil),
// row per result tuple (return false to stop: a normal completion whose
// summary counts the rows delivered so far), and the trailer's summary
// is returned. The bytes are untrusted — a coordinator reads its shards
// through this — so a stream that ends without a trailer, carries an
// error line, continues past its trailer or holds a malformed or
// oversized line is an error, never a short success.
func ReadStream(r io.Reader, header func(order []string), row func(mu []int64) bool) (StreamSummary, error) {
	var sum StreamSummary
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamLine)
	done := false
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
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
	if err := sc.Err(); err != nil {
		return sum, err
	}
	if !done {
		return sum, errors.New("server: stream ended without a summary trailer")
	}
	return sum, nil
}
