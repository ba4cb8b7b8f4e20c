package trie

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

// fuzzTuples decodes a byte stream into binary tuples over a small
// domain (so duplicates and shared prefixes are common).
func fuzzTuples(data []byte) [][]int64 {
	var out [][]int64
	for i := 0; i+1 < len(data); i += 2 {
		out = append(out, []int64{int64(data[i] % 16), int64(data[i+1] % 16)})
	}
	return out
}

// FuzzBatchSeek drives the batch iterator API against the scalar
// reference on fuzzer-built key sets — materialized and patched tries —
// asserting identical key sequences and bit-identical flushed counters
// for NextBatch walks and SeekBatch probes.
func FuzzBatchSeek(f *testing.F) {
	f.Add([]byte{}, []byte{}, int64(0), uint8(1))                                       // empty legs
	f.Add([]byte{3, 7}, []byte{}, int64(3), uint8(4))                                   // single-key leg
	f.Add([]byte{1, 1, 1, 1, 1, 2, 1, 2, 2, 1, 2, 1}, []byte{1, 2}, int64(1), uint8(2)) // duplicate-heavy
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []byte{2, 3, 4, 5}, int64(6), uint8(3))

	f.Fuzz(func(t *testing.T, baseB, patchB []byte, seek int64, bsRaw uint8) {
		bs := int(bsRaw%8) + 1
		baseTuples := fuzzTuples(baseB)
		base := relation.MustNew("E", 2, baseTuples)
		mat := Build(base, nil)

		tries := []*Trie{mat}
		// Patch: insert the patch tuples, delete every other base tuple.
		patchTuples := fuzzTuples(patchB)
		var dels [][]int64
		for i := 0; i < len(baseTuples); i += 2 {
			dels = append(dels, baseTuples[i])
		}
		pt, err := BuildPatched(mat,
			relation.MustNew("E", 2, patchTuples),
			relation.MustNew("E", 2, dels), nil)
		if err != nil {
			t.Fatal(err)
		}
		tries = append(tries, pt)

		for _, tr := range tries {
			// Full DFS: scalar vs leaf-batched.
			var cs stats.Counters
			its := tr.NewIteratorCounters(&cs)
			var want []int64
			dfsScalar(its, tr.Arity(), &want)
			its.Flush()

			var cb stats.Counters
			itb := tr.NewIteratorCounters(&cb)
			var got []int64
			dfsBatch(itb, tr.Arity(), make([]int64, bs), &got)
			itb.Flush()
			sameKeys(t, "dfs", got, want)
			if cb != cs {
				t.Fatalf("dfs: batch counters %+v, scalar %+v", cb, cs)
			}

			// Level-0 seek: SeekGE + scalar drain vs SeekBatch drain.
			cs, cb = stats.Counters{}, stats.Counters{}
			its = tr.NewIteratorCounters(&cs)
			its.Open()
			its.SeekGE(seek)
			want = want[:0]
			for !its.AtEnd() {
				want = append(want, its.Key())
				its.Next()
			}
			its.Flush()

			itb = tr.NewIteratorCounters(&cb)
			itb.Open()
			block := make([]int64, bs)
			got = got[:0]
			for n := itb.SeekBatch(seek, block); n > 0; n = itb.NextBatch(block) {
				got = append(got, block[:n]...)
			}
			itb.Flush()
			sameKeys(t, "seek", got, want)
			if cb != cs {
				t.Fatalf("seek(%d): batch counters %+v, scalar %+v", seek, cb, cs)
			}

			// The drained keys must be sorted — the sibling-order invariant.
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("seek drain not sorted: %v", got)
			}
		}
	})
}

// FuzzTrieUnder binds a fuzzer-chosen constant prefix on built,
// store-opened and patched tries over a fuzzer-built ternary relation
// and its delta, for both constant-column choices the prefix length
// allows, and holds every view to a trie over the selected and
// projected relation (checkView: keys, Len, charged accesses).
func FuzzTrieUnder(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0), false)
	f.Add([]byte{1, 2, 3, 1, 2, 4, 1, 5, 6, 2, 2, 2}, []byte{1, 2, 3, 1, 2, 4, 3, 3, 3}, uint8(1), uint8(2), true) // kills node (1,2)
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{6, 1, 7}, uint8(6), uint8(1), true)                                     // overlay-only constant
	f.Add([]byte{4, 4, 4, 4, 4, 5}, []byte{4, 4, 4, 4, 4, 5, 4, 9, 9}, uint8(4), uint8(9), false)                  // dead base node, value re-added

	tuples := func(data []byte) [][]int64 {
		var out [][]int64
		for i := 0; i+2 < len(data); i += 3 {
			out = append(out, []int64{int64(data[i] % 8), int64(data[i+1] % 8), int64(data[i+2] % 8)})
		}
		return out
	}
	f.Fuzz(func(t *testing.T, baseB, deltaB []byte, c0, c1 uint8, two bool) {
		base := relation.MustNew("R", 3, tuples(baseB))
		// The delta toggles its tuples: present ones go, absent ones come.
		toggle := relation.MustNew("R", 3, tuples(deltaB))
		cur := base.Subtract(toggle).Union(toggle.Subtract(base))
		prefix := []int64{int64(c0 % 8)}
		if two {
			prefix = append(prefix, int64(c1%8))
		}
		for _, cols := range [][2][]int{
			{{0, 1}, {2}}, {{1, 2}, {0}}, {{0, 2}, {1}}, // two constants
			{{0}, {1, 2}}, {{1}, {2, 0}}, {{2}, {1, 0}}, // one
		} {
			if len(cols[0]) != len(prefix) {
				continue
			}
			fx := newViewFixture(t, base, cur, cols[0], cols[1])
			fx.check(t, fmt.Sprintf("consts %v=%v", cols[0], prefix), prefix, int64(c0)<<8|int64(c1))
		}
	})
}
