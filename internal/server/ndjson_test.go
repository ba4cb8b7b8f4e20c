package server

import (
	"bytes"
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
	order []string
	rows  [][]int64
	sum   StreamSummary
	err   string // the terminal error's text; "" for a summary trailer
}

func readAll(data []byte) stream {
	var s stream
	sum, err := ReadStream(bytes.NewReader(data),
		func(order []string) { s.order = order },
		func(mu []int64) bool { s.rows = append(s.rows, mu); return true })
	if s.sum = sum; err != nil {
		s.err = strings.ToValidUTF8(err.Error(), "�")
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
	if s.err != "" {
		sw.fail(errors.New(s.err))
	} else {
		sw.summary(s.sum)
	}
	return buf.Bytes()
}

func (s stream) equal(o stream) bool {
	return slices.Equal(s.order, o.order) && reflect.DeepEqual(s.rows, o.rows) && s.err == o.err &&
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
		{stream{err: "boom <&>"}, `{"error":"boom \u003c\u0026\u003e"}` + "\n"}, // the encoder's HTML escaping, as ever
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
		if got.err == "" {
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
