package trie

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

// dfsScalar walks the whole trie depth-first with scalar operations,
// appending every visited key (DFS pre-order, leaves included).
func dfsScalar(it *Iterator, arity int, keys *[]int64) {
	it.Open()
	for !it.AtEnd() {
		*keys = append(*keys, it.Key())
		if it.Depth()+1 < arity {
			dfsScalar(it, arity, keys)
		}
		it.Next()
	}
	it.Up()
}

// dfsBatch is dfsScalar with the deepest level advanced via NextBatch —
// the shape the join engines use blocks in.
func dfsBatch(it *Iterator, arity int, block []int64, keys *[]int64) {
	it.Open()
	if it.Depth() == arity-1 {
		for {
			n := it.NextBatch(block)
			if n == 0 {
				break
			}
			*keys = append(*keys, block[:n]...)
		}
	} else {
		for !it.AtEnd() {
			*keys = append(*keys, it.Key())
			dfsBatch(it, arity, block, keys)
			it.Next()
		}
	}
	it.Up()
}

func sameKeys(t testing.TB, label string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d keys, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: key %d: got %d, want %d", label, i, got[i], want[i])
		}
	}
}

// batchTries returns a materialized and a patched trie over the same
// logical relation, so every equivalence check covers both cursor
// shapes.
func batchTries(t *testing.T) map[string]*Trie {
	t.Helper()
	base := relation.MustNew("E", 2, [][]int64{
		{1, 2}, {1, 3}, {1, 9}, {2, 2}, {4, 1}, {4, 2}, {4, 3}, {4, 4}, {7, 7},
	})
	mat := Build(base, nil)
	pt, err := BuildPatched(mat,
		relation.MustNew("E", 2, [][]int64{{1, 5}, {3, 3}, {4, 9}}),
		relation.MustNew("E", 2, [][]int64{{2, 2}, {4, 2}}),
		nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Trie{"materialized": mat, "patched": pt}
}

// TestNextBatchEquivalence pins the batch contract: same key sequence
// and bit-identical flushed counters as the scalar Key/Next walk, for
// every block size, on both cursor shapes.
func TestNextBatchEquivalence(t *testing.T) {
	for name, tr := range batchTries(t) {
		var cs stats.Counters
		its := tr.NewIteratorCounters(&cs)
		var want []int64
		dfsScalar(its, tr.Arity(), &want)
		its.Flush()

		for _, bs := range []int{1, 2, 3, 5, 64} {
			var cb stats.Counters
			itb := tr.NewIteratorCounters(&cb)
			var got []int64
			dfsBatch(itb, tr.Arity(), make([]int64, bs), &got)
			itb.Flush()
			sameKeys(t, name, got, want)
			if cb != cs {
				t.Errorf("%s bs=%d: batch counters %+v, scalar %+v", name, bs, cb, cs)
			}
		}
	}
}

// TestSeekBatchEquivalence compares a SeekGE followed by NextBatch
// drains against SeekGE plus the scalar drain at level 0, key-for-key
// and charge-for-charge.
func TestSeekBatchEquivalence(t *testing.T) {
	for name, tr := range batchTries(t) {
		for _, seek := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 100} {
			var cs stats.Counters
			its := tr.NewIteratorCounters(&cs)
			its.Open()
			its.SeekGE(seek)
			var want []int64
			for !its.AtEnd() {
				want = append(want, its.Key())
				its.Next()
			}
			its.Up()
			its.Flush()

			var cb stats.Counters
			itb := tr.NewIteratorCounters(&cb)
			itb.Open()
			block := make([]int64, 2)
			var got []int64
			itb.SeekGE(seek)
			for n := itb.NextBatch(block); n > 0; n = itb.NextBatch(block) {
				got = append(got, block[:n]...)
			}
			itb.Up()
			itb.Flush()

			sameKeys(t, name, got, want)
			if cb != cs {
				t.Errorf("%s seek=%d: batch counters %+v, scalar %+v", name, seek, cb, cs)
			}
		}
	}
}

func TestNextBatchEdgeCases(t *testing.T) {
	empty := Build(relation.MustNew("E", 2, nil), nil)
	it := empty.NewIterator()
	it.Open()
	if n := it.NextBatch(make([]int64, 4)); n != 0 {
		t.Fatalf("empty trie: NextBatch = %d, want 0", n)
	}
	it.Up()

	tr := Build(relation.MustNew("E", 1, [][]int64{{3}}), nil)
	it = tr.NewIterator()
	it.Open()
	if n := it.NextBatch(nil); n != 0 {
		t.Fatalf("nil dst: NextBatch = %d, want 0", n)
	}
	if it.AtEnd() || it.Key() != 3 {
		t.Fatal("nil dst must not move the iterator")
	}
	block := make([]int64, 4)
	if n := it.NextBatch(block); n != 1 || block[0] != 3 {
		t.Fatalf("single key: NextBatch = %d (%v), want 1 ([3 ...])", n, block)
	}
	if !it.AtEnd() {
		t.Fatal("iterator must be AtEnd after draining the level")
	}
	if n := it.NextBatch(block); n != 0 {
		t.Fatalf("AtEnd: NextBatch = %d, want 0", n)
	}
}
