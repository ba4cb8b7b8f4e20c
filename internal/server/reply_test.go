package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// encodeResponse is the reference: compact encoding/json of r, as the
// buffered reply spelled it before appendResponse.
func encodeResponse(r *Response) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// FuzzResponseCodec holds appendResponse to compact encoding/json byte
// for byte. The fuzzer picks the scalars, the floats (value and
// duration_ms: every magnitude, -0 and the non-finite ones, which both
// refuse), the strings (split at NUL into the order, the missing shards
// and the version keys: escapes, HTML characters, U+2028, non-ASCII and
// invalid UTF-8), the counters, the tuples (8 bytes a value) and, by
// flag bits, nil against empty for Order, Tuples, Versions and Missing,
// a nil tuple, and every boolean (Empty's bit 15 doubles as a width bit).
func FuzzResponseCodec(f *testing.F) {
	le := binary.LittleEndian
	raw := le.AppendUint64(le.AppendUint64(nil, 1<<63), 1<<63-1)
	for _, seed := range []struct {
		mode            string
		value, duration float64
		names           string
		flags           uint16
	}{
		{"count", 0, 0.123, "x\x00y", 0x001},
		{"eval", 0, 1.5, "a\x00b\x00c", 0x0ff},
		{"aggregate", math.Copysign(0, -1), math.Copysign(0, -1), "", 0x000},
		{"aggregate", 1e-7, 1e21, "x", 0x1ff},
		{"aggregate", 1e20, 1e-6, "x", 0x003},
		{"aggregate", 5e-324, math.MaxFloat64, "x", 0x005},
		{"aggregate", -1.0 / 3, 123456.789, "x", 0x009},
		{"aggregate", 2.5e-10, 12, "x", 0x011},
		{"aggregate", math.Inf(1), 0, "x", 0x001},
		{"aggregate", 1, math.NaN(), "x", 0x001},
		{"e\"val", 0, 0, "q\"uote\x00back\\slash\x00<a&b>\x00line\u2028sep\u2029\x00エッジ\x00\x01\x1f\x7f\x00\xff\xfe", 0x1ff},
		{"", 0, 0, "\x00", 0x0f5},
		{"aggregate", 0, 0.25, "x", 0x8001},
	} {
		f.Add(seed.mode, int64(-7), seed.value, seed.duration, seed.names, raw, seed.flags)
	}
	f.Fuzz(func(t *testing.T, mode string, count int64, value, duration float64, names string, raw []byte, flags uint16) {
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		strs := strings.Split(names, "\x00")
		r := Response{Mode: mode, Count: count, Value: value, Empty: bit(15), Truncated: bit(3), Partial: bit(4)}
		r.Stats.DurationMS = duration
		r.Stats.PlanCached, r.Stats.PlanRebound = bit(5), bit(6)
		r.Stats.CachedEntries = int(count >> 3)
		if bit(0) {
			r.Order = strs
		} else if bit(8) {
			r.Order = []string{}
		}
		if bit(7) {
			r.Missing = strs
		} else if bit(9) {
			r.Missing = []string{}
		}
		vals := make([]int64, 0, len(raw)/8)
		for ; len(raw) >= 8; raw = raw[8:] {
			vals = append(vals, int64(le.Uint64(raw)))
		}
		cs := reflect.ValueOf(&r.Stats.Counters).Elem()
		for i := 0; i < cs.NumField() && i < len(vals); i++ {
			cs.Field(i).SetInt(vals[i])
		}
		if bit(1) {
			r.Versions = map[string]uint64{}
			for i, k := range strs {
				r.Versions[k] = uint64(i) * 0x9e3779b97f4a7c15
			}
		} else if bit(10) {
			r.Versions = map[string]uint64{}
		}
		if bit(2) {
			r.Tuples = [][]int64{}
			width := 1 + int(flags>>12)%3
			for len(vals) >= width {
				r.Tuples, vals = append(r.Tuples, vals[:width]), vals[width:]
			}
			if bit(11) {
				r.Tuples = append(r.Tuples, nil, []int64{})
			}
		}

		want, wantErr := encodeResponse(&r)
		got, err := appendResponse(nil, &r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: appendResponse error %v, encoding/json error %v", r, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("appendResponse wrote\n%s\nencoding/json\n%s", got, want)
		}
	})
}

// fillNonZero sets every field reachable from v — nested structs, one
// element per slice, one key per map — to a non-zero value.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("s<&>\"" + v.Type().Name())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-42)
	case reflect.Uint64:
		v.SetUint(42)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(k)
		fillNonZero(e)
		v.SetMapIndex(k, e)
	default:
		panic("fillNonZero: no value for kind " + v.Kind().String())
	}
}

// TestResponseCodecCoversEveryField is the codec's guard against a
// field added to Response, QueryStats or stats.Counters: with every
// field set, an omitempty one included, the writer must still spell
// what encoding/json does.
func TestResponseCodecCoversEveryField(t *testing.T) {
	var r Response
	fillNonZero(reflect.ValueOf(&r).Elem())
	want, err := encodeResponse(&r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendResponse(nil, &r)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("appendResponse wrote\n%s (%v)\nencoding/json\n%s", got, err, want)
	}
}

// TestNonFiniteAggregateRefused: a "sum" over a 20-path on the one edge
// (4e18, 4e18) folds 21 factors of 4e18 — +Inf in float64. The engine
// refuses it with the typed error, and over HTTP it is a 400 with the
// error body; it used to answer 200 with an empty body, because the
// encoder failed after the status line was out.
func TestNonFiniteAggregateRefused(t *testing.T) {
	const big = 4_000_000_000_000_000_000
	rel, err := relation.New("E", 2, [][]int64{{big, big}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(relation.NewDB(rel), Config{})
	atoms := make([]string, 20)
	for i := range atoms {
		atoms[i] = "E(x" + string(rune('a'+i)) + ",x" + string(rune('b'+i)) + ")"
	}
	req := Request{Query: strings.Join(atoms, ", "), Mode: "aggregate", Semiring: "sum"}

	_, err = e.Do(req)
	var nf *nonFiniteError
	if !errors.As(err, &nf) || !math.IsInf(nf.value, 1) {
		t.Fatalf("Engine.Do: err %v, want a *nonFiniteError carrying +Inf", err)
	}
	// The same path at 4 atoms stays finite and is answered.
	if resp, err := e.Do(Request{Query: strings.Join(atoms[:4], ", "), Mode: "aggregate", Semiring: "sum"}); err != nil || resp.Value != math.Pow(big, 5) {
		t.Fatalf("4-path sum: %+v, %v", resp, err)
	}

	body, _ := json.Marshal(req)
	w := httptest.NewRecorder()
	NewHandler(e).ServeHTTP(w, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
	var got map[string]string
	if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &got) != nil || !strings.Contains(got["error"], "+Inf") {
		t.Fatalf("HTTP: status %d, body %q; want 400 with an error naming +Inf", w.Code, w.Body)
	}
}

// TestWriteJSONRefusesUnencodable: a reply the writer cannot spell is
// a 500 with an error body, never a 200 with a cut one — the body is
// built before the status line.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	for _, v := range []any{
		&Response{Mode: "aggregate", Value: math.NaN()},
		map[string]float64{"x": math.Inf(-1)},
	} {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		var got map[string]string
		if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &got) != nil || got["error"] == "" {
			t.Fatalf("%v: status %d, body %q", v, w.Code, w.Body)
		}
	}
}
