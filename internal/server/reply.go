package server

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/stats"
)

// nonFiniteError refuses an aggregate whose float64 fold left the
// finite range: a "sum" of large products overflows to ±Inf (or meets
// Inf·0 as NaN), and JSON has no number to answer it with. The query,
// not the engine, is at fault, so it answers 400 like any other
// refused request.
type nonFiniteError struct {
	semiring string
	value    float64
}

func (e *nonFiniteError) Error() string {
	return fmt.Sprintf("server: the %s aggregate is %v, which has no JSON number: the float64 fold left the finite range", e.semiring, e.value)
}

// replyBufs recycles reply buffers. A buffer that grew past
// maxPooledReply (an eval with a large sample) is left to the collector
// rather than pinned by the pool.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledReply = 64 << 10

// appendResponse appends r's JSON document exactly as a compact
// encoding/json Encoder writes it — keys in field order, omitempty as
// the tags say, map keys sorted, HTML characters escaped, one trailing
// newline — without reflection (FuzzResponseCodec holds the two to the
// same bytes). A float that is not finite is an error, as it is for
// encoding/json.
func appendResponse(b []byte, r *Response) ([]byte, error) {
	var err error
	b = append(b, `{"mode":`...)
	b = appendString(b, r.Mode)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, r.Count, 10)
	if r.Value != 0 {
		b = append(b, `,"value":`...)
		if b, err = appendFloat(b, r.Value); err != nil {
			return b, err
		}
	}
	if r.Empty {
		b = append(b, `,"empty":true`...)
	}
	b = append(b, `,"order":`...)
	b = appendStrings(b, r.Order)
	if len(r.Tuples) > 0 {
		b = append(b, `,"tuples":[`...)
		for i, t := range r.Tuples {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInts(b, t)
		}
		b = append(b, ']')
	}
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	if len(r.Versions) > 0 {
		b = append(b, `,"versions":{`...)
		var small [8]string
		keys := small[:0]
		for k := range r.Versions {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = strconv.AppendUint(b, r.Versions[k], 10)
		}
		b = append(b, '}')
	}
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	if len(r.Missing) > 0 {
		b = append(b, `,"missing_shards":`...)
		b = appendStrings(b, r.Missing)
	}
	b = append(b, `,"stats":{"duration_ms":`...)
	if b, err = appendFloat(b, r.Stats.DurationMS); err != nil {
		return b, err
	}
	b = append(b, `,"counters":`...)
	b = appendCounters(b, &r.Stats.Counters)
	b = append(b, `,"cached_entries":`...)
	b = strconv.AppendInt(b, int64(r.Stats.CachedEntries), 10)
	if r.Stats.PlanCached {
		b = append(b, `,"plan_cached":true`...)
	}
	if r.Stats.PlanRebound {
		b = append(b, `,"plan_rebound":true`...)
	}
	return append(b, "}}\n"...), nil
}

// appendCounters appends c under encoding/json's spelling of a struct
// without tags: the field names as keys, in declaration order.
func appendCounters(b []byte, c *stats.Counters) []byte {
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`{"TrieAccesses":`, c.TrieAccesses},
		{`,"HashAccesses":`, c.HashAccesses},
		{`,"TupleAccesses":`, c.TupleAccesses},
		{`,"CacheHits":`, c.CacheHits},
		{`,"CacheMisses":`, c.CacheMisses},
		{`,"CacheInserts":`, c.CacheInserts},
		{`,"CacheEvictions":`, c.CacheEvictions},
		{`,"TrieBuilds":`, c.TrieBuilds},
		{`,"TriePatches":`, c.TriePatches},
		{`,"DeltaApplies":`, c.DeltaApplies},
		{`,"TrieOpens":`, c.TrieOpens},
	} {
		b = append(b, f.key...)
		b = strconv.AppendInt(b, f.v, 10)
	}
	return append(b, '}')
}

// appendFloat appends f as encoding/json spells a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 up, with the exponent's leading zero dropped.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("server: float %v has no JSON number", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s quoted. Plain printable ASCII needs no escape
// and is copied; anything else — a quote, a backslash, an HTML
// character, a control or non-ASCII byte — goes through json.Marshal,
// whose escaping is then the one answer.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendStrings appends a []string, nil as null.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendInts appends an []int64, nil as null.
func appendInts(b []byte, vs []int64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}
