package trie

import (
	"testing"

	"repro/internal/stats"
)

// TestLeapfrogLeafInPlace checks that the kernel steps the iterators'
// own legs: a leaf opened and drained through a Leapfrog leaves each
// iterator one level down on the frog's next match, readable through the
// Iterator with nothing written back, and Close puts every leg back on
// the key it stood on.
func TestLeapfrogLeafInPlace(t *testing.T) {
	a := Build(buildRel(t, 2, [][]int64{{1, 2}, {1, 4}, {1, 6}, {1, 8}, {2, 1}}), nil)
	b := Build(buildRel(t, 2, [][]int64{{0, 5}, {1, 4}, {1, 5}, {1, 6}, {1, 7}}), nil)
	var c stats.Counters
	its := []*Iterator{a.NewIteratorCounters(&c), b.NewIteratorCounters(&c)}
	for _, it := range its {
		it.Open()
		it.SeekGE(1)
	}
	f := NewLeapfrog(its, []int{1, 1})
	dst := make([]int64, 2)
	if n := openLeaf(&f, dst); !f.AtEnd() || n != 2 || dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("drain wrote %v, AtEnd=%v; want [4 6] drained", dst[:n], f.AtEnd())
	}
	f.Close()
	for _, it := range its {
		if it.Depth() != 0 || it.Key() != 1 {
			t.Fatalf("closed leaf left a leg at depth %d key %d, want 0 and 1", it.Depth(), it.Key())
		}
	}
	// The exact charge is the scalar frog's, which leapfrog's tests hold
	// the kernel to; here it must only have been credited.
	flushed := func() int64 {
		for _, it := range its {
			it.Flush()
		}
		return c.TrieAccesses
	}
	if flushed() == 0 {
		t.Fatal("drained leaf charged nothing")
	}

	if n := openLeaf(&f, dst[:1]); f.AtEnd() || n != 1 || dst[0] != 4 {
		t.Fatalf("short block: n=%d AtEnd=%v first=%d, want 1 open 4", n, f.AtEnd(), dst[0])
	}
	for i, it := range its {
		if it.Depth() != 1 || it.AtEnd() || it.Key() != 6 {
			t.Fatalf("short block left leg %d at depth %d key %d, want 1 and 6", i, it.Depth(), it.Key())
		}
	}
	f.Close()
}

// openLeaf opens f and drains a first block into dst, as leapfrog's
// Runner.OpenLeaf does.
func openLeaf(f *Leapfrog, dst []int64) int {
	if !f.Open() {
		return 0
	}
	return f.NextBatch(dst)
}
