package cluster

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/server"
)

// splitScript decodes fuzzer bytes into an update over relation "E": each
// tuple is one header byte (bit 0: delete rather than insert; the rest,
// mod 5: the arity, 0 to 4) and then arity little-endian int64 values.
// A tuple the bytes run out in is dropped.
func splitScript(data []byte) server.UpdateRequest {
	req := server.UpdateRequest{Relation: "E"}
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		arity := int(h>>1) % 5
		if len(data) < 8*arity {
			break
		}
		t := make([]int64, arity)
		for i := range t {
			t[i] = int64(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		if h&1 == 0 {
			req.Inserts = append(req.Inserts, t)
		} else {
			req.Deletes = append(req.Deletes, t)
		}
	}
	return req
}

// splitSeed encodes tuples the way splitScript reads them.
func splitSeed(deletes bool, tuples ...[]int64) []byte {
	var out []byte
	for _, t := range tuples {
		h := byte(len(t)) << 1
		if deletes {
			h |= 1
		}
		out = append(out, h)
		for _, v := range t {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	}
	return out
}

// FuzzSplitUpdate routes arbitrary deltas — tuples of arity 0 to 4 over
// the whole int64 range, inserts and deletes — over 1 to 8 shards. An
// empty tuple must be an error. Otherwise the parts must partition the
// input exactly, each part's inserts and deletes in input order, every
// part must carry the relation, and every tuple in part i must hash to
// shard i.
func FuzzSplitUpdate(f *testing.F) {
	f.Add(splitSeed(false, []int64{1, 9}, []int64{2, 9}, []int64{3, 9}), uint8(3))
	f.Add(append(splitSeed(false, []int64{-1, 0, 5}), splitSeed(true, []int64{math.MinInt64}, []int64{math.MaxInt64, -7, 0, 1})...), uint8(7))
	f.Add(splitSeed(true, []int64{4, 4}, []int64{}, []int64{5, 5}), uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shards uint8) {
		n := 1 + int(shards)%8
		req := splitScript(data)
		parts, err := SplitUpdate(req, n)
		hasEmpty := slices.ContainsFunc(req.Inserts, func(t []int64) bool { return len(t) == 0 }) ||
			slices.ContainsFunc(req.Deletes, func(t []int64) bool { return len(t) == 0 })
		if hasEmpty {
			if err == nil {
				t.Fatalf("update with an empty tuple split without error: %+v", req)
			}
			return
		}
		if err != nil {
			t.Fatalf("SplitUpdate(%+v, %d): %v", req, n, err)
		}
		if len(parts) != n {
			t.Fatalf("%d parts for %d shards", len(parts), n)
		}
		for i, p := range parts {
			if p.Relation != req.Relation {
				t.Fatalf("part %d relation %q, want %q", i, p.Relation, req.Relation)
			}
			for _, tup := range slices.Concat(p.Inserts, p.Deletes) {
				if s := ShardOf(tup[0], n); s != i {
					t.Fatalf("tuple %v in part %d hashes to shard %d", tup, i, s)
				}
			}
		}
		// Walking the input in order, each tuple must be the next one of
		// its shard's part, and every part must be used up.
		for _, side := range []struct {
			name string
			in   [][]int64
			pick func(server.UpdateRequest) [][]int64
		}{
			{"insert", req.Inserts, func(r server.UpdateRequest) [][]int64 { return r.Inserts }},
			{"delete", req.Deletes, func(r server.UpdateRequest) [][]int64 { return r.Deletes }},
		} {
			next := make([]int, n)
			for _, tup := range side.in {
				i := ShardOf(tup[0], n)
				got := side.pick(parts[i])
				if next[i] == len(got) || !slices.Equal(got[next[i]], tup) {
					t.Fatalf("%s %v missing from part %d in input order: %v", side.name, tup, i, got)
				}
				next[i]++
			}
			for i, p := range parts {
				if got := side.pick(p); next[i] != len(got) {
					t.Fatalf("part %d holds %d %ss, the input routes %d there", i, len(got), side.name, next[i])
				}
			}
		}
	})
}
