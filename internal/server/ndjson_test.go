package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// stream is what one NDJSON stream carries, as ReadStream reports it.
type stream struct {
	order  []string
	rows   [][]int64
	sum    StreamSummary
	failed bool   // the stream ended in an error, not a summary trailer
	err    string // the terminal error's text, which may be empty
}

// readAll keeps every row, so it copies each one out of ReadStream's
// reused slice (slices.Clone keeps an empty row empty, not nil).
func readAll(data []byte) stream {
	var s stream
	sum, err := ReadStream(bytes.NewReader(data),
		func(order []string) { s.order = order },
		func(mu []int64) bool { s.rows = append(s.rows, slices.Clone(mu)); return true })
	if s.sum = sum; err != nil {
		s.failed, s.err = true, strings.ToValidUTF8(err.Error(), "�")
		s.sum = StreamSummary{}
	}
	return s
}

func (s stream) write() []byte {
	var buf bytes.Buffer
	sw := newStreamWriter(&buf)
	defer sw.close()
	if s.order != nil {
		sw.order(s.order)
	}
	for _, mu := range s.rows {
		sw.row(mu)
	}
	if s.failed {
		sw.fail(errors.New(s.err))
	} else {
		sw.summary(s.sum)
	}
	return buf.Bytes()
}

func (s stream) equal(o stream) bool {
	return slices.Equal(s.order, o.order) && reflect.DeepEqual(s.rows, o.rows) && s.failed == o.failed && s.err == o.err &&
		s.sum.Count == o.sum.Count && s.sum.Truncated == o.sum.Truncated &&
		s.sum.Partial == o.sum.Partial && slices.Equal(s.sum.Missing, o.sum.Missing)
}

// TestStreamTrailerBytes pins the wire's trailer shapes: a healthy
// summary carries exactly count and truncated, a degraded one adds its
// two keys in the (sorted) order the map-built trailers always had.
func TestStreamTrailerBytes(t *testing.T) {
	for _, tc := range []struct {
		s    stream
		want string
	}{
		{stream{order: []string{"x"}, rows: [][]int64{{7}}, sum: StreamSummary{Count: 1}},
			`{"order":["x"]}` + "\n" + `{"row":[7]}` + "\n" + `{"summary":{"count":1,"truncated":false}}` + "\n"},
		{stream{order: []string{}, rows: [][]int64{{}}, sum: StreamSummary{Count: 1, Truncated: true, Partial: true, Missing: []string{"b", "c"}}},
			`{"order":[]}` + "\n" + `{"row":[]}` + "\n" + `{"summary":{"count":1,"missing_shards":["b","c"],"partial":true,"truncated":true}}` + "\n"},
		{stream{failed: true, err: "boom <&>"}, `{"error":"boom \u003c\u0026\u003e"}` + "\n"}, // the encoder's HTML escaping, as ever
	} {
		if got := string(tc.s.write()); got != tc.want {
			t.Errorf("wrote %q, want %q", got, tc.want)
		}
		if back := readAll([]byte(tc.want)); !back.equal(tc.s) {
			t.Errorf("read %+v back from %q, want %+v", back, tc.want, tc.s)
		}
	}
}

// FuzzReadStream feeds the one NDJSON reader arbitrary bytes — a
// shard's response body is untrusted input to its coordinator. It must
// never panic, never report success unless the stream ended in a summary
// trailer (checked here by re-parsing the last line generically), and
// whatever it did read must survive the writer → reader round trip.
func FuzzReadStream(f *testing.F) {
	golden, err := os.ReadFile("testdata/stream.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2]) // cut mid-stream: no trailer
	f.Add([]byte(`{"order":["x","y"]}` + "\n" + `{"row":[1,2]}` + "\n" + `{"error":"context deadline exceeded"}` + "\n"))
	f.Add([]byte(`{"order":[]}` + "\n\n" + `{"row":[]}` + "\n" + `{"summary":{"count":1,"missing_shards":["b"],"partial":true,"truncated":false}}`))
	f.Add([]byte(`{"summary":{"count":0,"truncated":false}}` + "\n" + `{"row":[1]}`))
	f.Add([]byte(`{"row":[1.5]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got := readAll(data)
		if !got.failed {
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			var last map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatalf("success on a stream whose last line is not an object: %v", err)
			}
			trailer := false
			for key, v := range last {
				trailer = trailer || strings.EqualFold(key, "summary") && string(v) != "null"
			}
			if !trailer {
				t.Fatalf("success without a summary trailer: last line %q", lines[len(lines)-1])
			}
		}
		if back := readAll(got.write()); !back.equal(got) {
			t.Fatalf("round trip changed the stream:\nread    %+v\nre-read %+v", got, back)
		}
	})
}

// FuzzStreamRowCodec holds the row codec's two fast paths to
// encoding/json. Any line parseRowLine accepts, json.Unmarshal accepts
// too, setting the row alone to the same values — so the fast path
// changes no answer of ReadStream — and a line the writer wrote is one
// the fast path accepts. For a fuzzer-chosen row (8 bytes per value;
// empty and nil rows included) the writer's bytes are json.Encoder's
// for the same line.
func FuzzStreamRowCodec(f *testing.F) {
	for _, line := range []string{
		`{"row":[1,22,333]}`, `{"row":[]}`, `{"row":[-0]}`, `{"row":[0,-1]}`,
		`{"row":[9223372036854775807,-9223372036854775808]}`,
		`{"row":[9223372036854775808]}`, `{"row":[-9223372036854775809]}`,
		`{"row":[01]}`, `{"row":[-]}`, `{"row":[1,]}`, `{"row":[,1]}`, `{"row":[1.5]}`,
		`{"row":[1e3]}`, `{"row":[ 1]}`, `{"row": [1]}`, `{"ROW":[1]}`, `{"row":null}`,
		`{"row":[1],"row":[2]}`, `{"row":[1]} `, `{"row":[]}}`, `{"row":[1]`,
	} {
		f.Add([]byte(line), []byte{}, false)
	}
	le := binary.LittleEndian
	f.Add([]byte(nil), le.AppendUint64(le.AppendUint64(nil, 1<<63), 1<<63-1), false) // MinInt64, MaxInt64
	f.Add([]byte(nil), le.AppendUint64(nil, 1<<64-1), false)                         // -1
	f.Add([]byte(nil), []byte(nil), true)                                            // a nil row
	f.Fuzz(func(t *testing.T, line, raw []byte, null bool) {
		if got, ok := parseRowLine([]int64{}, line); ok {
			var sl streamLine
			if err := json.Unmarshal(line, &sl); err != nil {
				t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", line, err)
			}
			if sl.Order != nil || sl.Summary != nil || sl.Error != nil || sl.Row == nil || !slices.Equal(*sl.Row, got) {
				t.Fatalf("fast path read %q as row %v, json.Unmarshal as %+v", line, got, sl)
			}
		}

		var mu []int64
		if !null {
			mu = make([]int64, 0, len(raw)/8)
			for ; len(raw) >= 8; raw = raw[8:] {
				mu = append(mu, int64(le.Uint64(raw)))
			}
		}
		var wrote, want bytes.Buffer
		sw := newStreamWriter(&wrote)
		sw.row(mu)
		sw.close()
		if err := json.NewEncoder(&want).Encode(streamLine{Row: &mu}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wrote.Bytes(), want.Bytes()) {
			t.Fatalf("row %v: writer wrote %q, json.Encoder %q", mu, wrote.Bytes(), want.Bytes())
		}
		if mu != nil {
			back, ok := parseRowLine([]int64{}, bytes.TrimSuffix(wrote.Bytes(), []byte("\n")))
			if !ok || !slices.Equal(back, mu) {
				t.Fatalf("fast path read the writer's %q as %v, %v", wrote.Bytes(), back, ok)
			}
		}
	})
}

// discardFlusher is a client that takes every byte and every flush, so
// a streamWriter over it runs its full pacing, ticker included.
type discardFlusher struct{}

func (discardFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (discardFlusher) Flush()                      {}

// benchRows is n rows in the shape of the cluster_fanout benchmark's
// stream (which takes 500): rows of a 2-star, three node ids each.
func benchRows(n int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i / 7), int64(i * 31 % 1340), int64(i * 17 % 1340)}
	}
	return rows
}

// TestStreamRowAllocs guards the row paths of both ends: a row write
// allocates nothing (its line buffer is reused, and the nil-row branch's
// escaping address stays in its own function), and what ReadStream
// allocates — scanner, row slice, header and trailer — does not grow
// with the number of rows.
func TestStreamRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	sw := newStreamWriter(discardFlusher{})
	defer sw.close()
	mu := []int64{1340, -7, 0}
	sw.row(mu) // grow the line buffer once
	if allocs := testing.AllocsPerRun(1000, func() { sw.row(mu) }); allocs != 0 {
		t.Errorf("a row write allocates %.1f objects, want 0", allocs)
	}

	read := func(rows int) float64 {
		s := stream{order: []string{"x", "y", "z"}, rows: benchRows(rows), sum: StreamSummary{Count: int64(rows)}}
		data := s.write()
		discard := func([]int64) bool { return true }
		return testing.AllocsPerRun(20, func() {
			if sum, err := ReadStream(bytes.NewReader(data), func([]string) {}, discard); err != nil || sum.Count != int64(rows) {
				t.Fatalf("ReadStream: %+v, %v", sum, err)
			}
		})
	}
	few, many := read(10), read(1000)
	if many != few {
		t.Errorf("ReadStream allocates %.1f objects for 10 rows, %.1f for 1 000: want no per-row objects", few, many)
	}
}

// BenchmarkStreamWriter is the writer's rung: one stream of 500
// benchRows — header, rows, summary — to a flushing client.
func BenchmarkStreamWriter(b *testing.B) {
	rows := benchRows(500)
	order := []string{"x", "y", "z"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw := newStreamWriter(discardFlusher{})
		sw.order(order)
		for _, mu := range rows {
			sw.row(mu)
		}
		sw.summary(StreamSummary{Count: int64(len(rows))})
		sw.close()
	}
}

// BenchmarkReadStream is the reader's rung: the same stream, decoded.
func BenchmarkReadStream(b *testing.B) {
	data := stream{order: []string{"x", "y", "z"}, rows: benchRows(500), sum: StreamSummary{Count: 500}}.write()
	discard := func([]int64) bool { return true }
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadStream(bytes.NewReader(data), nil, discard); err != nil {
			b.Fatal(err)
		}
	}
}
