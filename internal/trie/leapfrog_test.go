package trie

import (
	"testing"

	"repro/internal/stats"
)

// TestLeapfrogReady pins which legs the kernel takes: two to
// MaxLeapfrogLegs materialized iterators accounting into one sink.
func TestLeapfrogReady(t *testing.T) {
	var c1, c2 stats.Counters
	built := Build(unaryRel([]int64{1, 2, 3}), nil)
	patched := patchOf(t, unaryRel([]int64{1, 2}), unaryRel([]int64{1, 3}), nil)
	legs := func(n int, c *stats.Counters) []*Iterator {
		its := make([]*Iterator, n)
		for i := range its {
			its[i] = built.NewIteratorCounters(c)
		}
		return its
	}
	for _, tc := range []struct {
		name string
		its  []*Iterator
		want bool
	}{
		{"none", nil, false},
		{"one", legs(1, &c1), false},
		{"two", legs(2, &c1), true},
		{"max", legs(MaxLeapfrogLegs, &c1), true},
		{"past max", legs(MaxLeapfrogLegs+1, &c1), false},
		{"no sink", legs(3, nil), true},
		{"two sinks", append(legs(1, &c1), legs(1, &c2)...), false},
		{"patched leg", append(legs(1, &c1), patched.NewIteratorCounters(&c1)), false},
	} {
		if got := LeapfrogReady(tc.its); got != tc.want {
			t.Errorf("%s: LeapfrogReady = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLeapfrogLeafInPlace checks the leaf entry's shortcut: an
// intersection that ends within dst leaves every leg where it stood —
// depth and key — with only the charges written back; one that does not
// leaves the legs open on the next match.
func TestLeapfrogLeafInPlace(t *testing.T) {
	a := Build(buildRel(t, 2, [][]int64{{1, 2}, {1, 4}, {1, 6}, {1, 8}, {2, 1}}), nil)
	b := Build(buildRel(t, 2, [][]int64{{0, 5}, {1, 4}, {1, 5}, {1, 6}, {1, 7}}), nil)
	var c stats.Counters
	its := []*Iterator{a.NewIteratorCounters(&c), b.NewIteratorCounters(&c)}
	for _, it := range its {
		it.Open()
		it.SeekGE(1)
	}
	c.Reset()
	dst := make([]int64, 2)
	if n, _, open := LeapfrogLeaf(its, dst); open || n != 2 || dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("drain wrote %v, open=%v; want [4 6] drained", dst[:n], open)
	}
	for _, it := range its {
		it.Flush()
		if it.Depth() != 0 || it.Key() != 1 {
			t.Fatalf("drained leaf moved a leg to depth %d key %d", it.Depth(), it.Key())
		}
	}
	// The exact charge is the scalar frog's, which leapfrog's tests hold
	// the kernel to; here it must only have been written back.
	if c.TrieAccesses == 0 {
		t.Fatal("drained leaf charged nothing")
	}

	n, p, open := LeapfrogLeaf(its, dst[:1])
	if !open || n != 1 || dst[0] != 4 {
		t.Fatalf("short block: n=%d open=%v first=%d, want 1 open 4", n, open, dst[0])
	}
	if its[p].Depth() != 1 || its[p].Key() != 6 {
		t.Fatalf("short block left leg %d at depth %d key %d, want 1 and 6", p, its[p].Depth(), its[p].Key())
	}
}
