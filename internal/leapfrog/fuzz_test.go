package leapfrog

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/trie"
)

// fuzzKeys decodes a byte stream into unary keys over a small domain,
// so legs overlap and duplicate-heavy inputs are common.
func fuzzKeys(data []byte) []int64 {
	out := make([]int64, len(data))
	for i, b := range data {
		out[i] = int64(b % 24)
	}
	return out
}

// FuzzBlockIntersect drives Frog.NextBatch — the only leaf scan core's
// traversals have — against the scalar Key/Next leapfrog on
// fuzzer-chosen relations: a k-way intersection over 1..3 legs,
// including a patched leg, asserting identical matches and bit-identical
// counters at every block size.
func FuzzBlockIntersect(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, uint8(1), uint8(2))                                     // empty legs
	f.Add([]byte{5}, []byte{5}, []byte{}, uint8(2), uint8(1))                                   // single-key legs
	f.Add([]byte{1, 1, 1, 2, 2, 1, 2}, []byte{1, 2, 1, 1}, []byte{2, 2, 2}, uint8(3), uint8(4)) // duplicate-heavy
	f.Add([]byte{0, 2, 4, 6, 8, 10}, []byte{1, 2, 3, 4, 5, 6}, []byte{2, 4, 8}, uint8(3), uint8(7))

	f.Fuzz(func(t *testing.T, aB, bB, cB []byte, kRaw, bsRaw uint8) {
		k := int(kRaw%3) + 1
		bs := int(bsRaw%9) + 1

		mk := func(data []byte) *trie.Trie {
			keys := fuzzKeys(data)
			tuples := make([][]int64, len(keys))
			for i, v := range keys {
				tuples[i] = []int64{v}
			}
			return trie.Build(relation.MustNew("A", 1, tuples), nil)
		}
		tries := []*trie.Trie{mk(aB), mk(bB), mk(cB)}[:k]
		if len(cB) > 0 {
			// Exercise the patched-merge fallback: rebuild the last leg as
			// a patch of an empty base carrying the same keys.
			keys := fuzzKeys(cB)
			tuples := make([][]int64, len(keys))
			for i, v := range keys {
				tuples[i] = []int64{v}
			}
			base := trie.Build(relation.MustNew("A", 1, nil), nil)
			pt, err := trie.BuildPatched(base,
				relation.MustNew("A", 1, tuples), relation.MustNew("A", 1, nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			tries = append(tries[:len(tries):len(tries)], pt)
		}

		var cs stats.Counters
		fr, legs, ok := frogOver(tries, &cs)
		want := drainScalar(fr, ok)
		flushAll(legs)

		var cb stats.Counters
		fr, legs, ok = frogOver(tries, &cb)
		got := drainBatch(fr, ok, make([]int64, bs))
		flushAll(legs)
		if len(got) != len(want) {
			t.Fatalf("bs=%d: %d matches, want %d (%v vs %v)", bs, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("bs=%d: match %d = %d, want %d", bs, i, got[i], want[i])
			}
		}
		if cb != cs {
			t.Fatalf("bs=%d: batch counters %+v, scalar %+v", bs, cb, cs)
		}
	})
}
