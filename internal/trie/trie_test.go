package trie

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

func buildRel(t *testing.T, arity int, tuples [][]int64) *relation.Relation {
	t.Helper()
	return relation.MustNew("R", arity, tuples)
}

// walk enumerates all root-to-leaf paths of the trie via the iterator.
func walk(tr *Trie) [][]int64 {
	var out [][]int64
	it := tr.NewIterator()
	path := make([]int64, tr.Arity())
	var rec func(d int)
	rec = func(d int) {
		it.Open()
		for !it.AtEnd() {
			path[d] = it.Key()
			if d == tr.Arity()-1 {
				out = append(out, append([]int64(nil), path...))
			} else {
				rec(d + 1)
			}
			it.Next()
		}
		it.Up()
	}
	if tr.Arity() > 0 {
		rec(0)
	}
	it.Flush()
	return out
}

func TestTrieRoundTripsTuples(t *testing.T) {
	tuples := [][]int64{{1, 2, 3}, {1, 2, 4}, {1, 3, 1}, {2, 1, 1}, {2, 1, 2}}
	tr := Build(buildRel(t, 3, tuples), nil)
	if got := walk(tr); !reflect.DeepEqual(got, tuples) {
		t.Fatalf("walk = %v, want %v", got, tuples)
	}
	if tr.Len(0) != 2 || tr.Len(1) != 3 || tr.Len(2) != 5 {
		t.Fatalf("level sizes = %d,%d,%d", tr.Len(0), tr.Len(1), tr.Len(2))
	}
}

// Property: for random relations, iterating the trie reproduces exactly
// the sorted, deduplicated tuples.
func TestTrieRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		arity := 1 + rng.Intn(4)
		n := rng.Intn(80)
		var tuples [][]int64
		for i := 0; i < n; i++ {
			row := make([]int64, arity)
			for j := range row {
				row[j] = int64(rng.Intn(6))
			}
			tuples = append(tuples, row)
		}
		rel := buildRel(t, arity, tuples)
		tr := Build(rel, nil)
		if got, want := walk(tr), rel.Tuples(); !reflect.DeepEqual(got, want) {
			if len(got) != 0 || len(want) != 0 {
				t.Fatalf("trial %d: walk mismatch:\n got %v\nwant %v", trial, got, want)
			}
		}
	}
}

func TestEmptyTrie(t *testing.T) {
	tr := Build(buildRel(t, 2, nil), nil)
	it := tr.NewIterator()
	it.Open()
	if !it.AtEnd() {
		t.Fatal("empty trie iterator not AtEnd after Open")
	}
	it.Up()
	if got := walk(tr); len(got) != 0 {
		t.Fatalf("walk of empty trie = %v", got)
	}
}

func TestSeekGE(t *testing.T) {
	tr := Build(buildRel(t, 1, [][]int64{{2}, {5}, {7}, {11}}), nil)
	cases := []struct {
		seek  int64
		want  int64
		atEnd bool
	}{
		{0, 2, false},
		{2, 2, false},
		{3, 5, false},
		{7, 7, false},
		{8, 11, false},
		{12, 0, true},
	}
	for _, tc := range cases {
		it := tr.NewIterator()
		it.Open()
		it.SeekGE(tc.seek)
		if it.AtEnd() != tc.atEnd {
			t.Errorf("SeekGE(%d): AtEnd = %v, want %v", tc.seek, it.AtEnd(), tc.atEnd)
			continue
		}
		if !tc.atEnd && it.Key() != tc.want {
			t.Errorf("SeekGE(%d) = %d, want %d", tc.seek, it.Key(), tc.want)
		}
	}
}

func TestSeekGENeverMovesBackwards(t *testing.T) {
	vals := [][]int64{{1}, {3}, {4}, {9}, {15}}
	tr := Build(buildRel(t, 1, vals), nil)
	it := tr.NewIterator()
	it.Open()
	it.SeekGE(4)
	if it.Key() != 4 {
		t.Fatalf("SeekGE(4) = %d", it.Key())
	}
	it.SeekGE(2) // lower bound below the current key: must stay put
	if it.Key() != 4 {
		t.Fatalf("SeekGE(2) after 4 moved to %d", it.Key())
	}
}

// Property: a sequence of random monotone seeks within one level visits
// exactly the least keys >= the seek values, as binary search over the
// sorted array would.
func TestSeekGEProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(50)
		seen := make(map[int64]bool)
		var tuples [][]int64
		for i := 0; i < n; i++ {
			v := int64(rng.Intn(200))
			if !seen[v] {
				seen[v] = true
				tuples = append(tuples, []int64{v})
			}
		}
		rel := buildRel(t, 1, tuples)
		sorted := make([]int64, 0, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			sorted = append(sorted, rel.Tuple(i)[0])
		}
		tr := Build(rel, nil)
		it := tr.NewIterator()
		it.Open()
		cur := int64(-1)
		for probe := 0; probe < 20 && !it.AtEnd(); probe++ {
			target := cur + int64(rng.Intn(40))
			it.SeekGE(target)
			i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= target })
			// The iterator never moves backwards, so the expected position
			// is also bounded below by the previous key.
			for i < len(sorted) && sorted[i] < cur {
				i++
			}
			if i == len(sorted) {
				if !it.AtEnd() {
					t.Fatalf("trial %d: expected AtEnd for target %d, got key %d", trial, target, it.Key())
				}
				break
			}
			if it.AtEnd() {
				t.Fatalf("trial %d: unexpected AtEnd for target %d (want %d)", trial, target, sorted[i])
			}
			if it.Key() != sorted[i] {
				t.Fatalf("trial %d: SeekGE(%d) = %d, want %d", trial, target, it.Key(), sorted[i])
			}
			cur = it.Key()
		}
	}
}

func TestCountersAccumulate(t *testing.T) {
	var c stats.Counters
	tr := Build(buildRel(t, 2, [][]int64{{1, 2}, {1, 3}, {2, 1}}), &c)
	walk(tr)
	if c.TrieAccesses == 0 {
		t.Fatal("walk performed no counted trie accesses")
	}
	if tr.Counters() != &c {
		t.Fatal("Counters() does not return the sink")
	}
}

func TestFanout(t *testing.T) {
	tr := Build(buildRel(t, 2, [][]int64{{1, 1}, {1, 2}, {1, 3}, {2, 1}}), nil)
	if got := tr.Fanout(0); got != 2 {
		t.Errorf("Fanout(0) = %g, want 2 (4 children / 2 roots)", got)
	}
	if got := tr.Fanout(1); got != 1 {
		t.Errorf("Fanout(1) = %g, want 1 (deepest level)", got)
	}
}

func TestOpenPanicsBelowDeepest(t *testing.T) {
	tr := Build(buildRel(t, 1, [][]int64{{1}}), nil)
	it := tr.NewIterator()
	it.Open()
	defer func() {
		if recover() == nil {
			t.Fatal("Open below deepest level did not panic")
		}
	}()
	it.Open()
}

func TestUpPanicsAboveRoot(t *testing.T) {
	tr := Build(buildRel(t, 1, [][]int64{{1}}), nil)
	it := tr.NewIterator()
	defer func() {
		if recover() == nil {
			t.Fatal("Up above virtual root did not panic")
		}
	}()
	it.Up()
}

func TestMemoryBytes(t *testing.T) {
	tr := Build(buildRel(t, 2, [][]int64{{1, 2}, {1, 3}, {2, 1}}), nil)
	// Level 0: 2 values + 3 offsets; level 1: 3 values + 4 offsets.
	want := int64(8*2 + 4*3 + 8*3 + 4*4)
	if got := tr.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	if Build(buildRel(t, 2, nil), nil).MemoryBytes() <= 0 {
		// Empty tries still hold sentinel offset arrays.
		t.Log("empty trie footprint is minimal, as expected")
	}

	// A dense first level carries its lower-bound index, 4 bytes a slot:
	// roots 0, 2, …, 198 span 199 codes, so 200 slots. A reopened trie
	// rebuilds and counts the same index; a view under one root shares
	// only the deeper level, which has none.
	var tuples [][]int64
	for x := int64(0); x < 200; x += 2 {
		tuples = append(tuples, []int64{x, 1})
	}
	dense := Build(buildRel(t, 2, tuples), nil)
	want = 8*100 + 4*101 + 4*200 + 8*100 + 4*101
	if got := dense.MemoryBytes(); got != want {
		t.Fatalf("dense MemoryBytes = %d, want %d", got, want)
	}
	opened, err := FromLevels(snapLevels(t, dense))
	if err != nil {
		t.Fatal(err)
	}
	if got := opened.MemoryBytes(); got != want {
		t.Fatalf("reopened MemoryBytes = %d, want %d", got, want)
	}
	view, _ := dense.Under([]int64{4})
	if got, want := view.MemoryBytes(), int64(8*100+4*101); got != want {
		t.Fatalf("view MemoryBytes = %d, want %d", got, want)
	}
	// A patch's overlay, dense in its own right, counts its own index.
	var adds [][]int64
	for x := int64(1000); x < 1064; x++ {
		adds = append(adds, []int64{x, 1})
	}
	patched, err := BuildPatched(dense, buildRel(t, 2, adds), buildRel(t, 2, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := patched.PatchBytes(), int64(8*64+4*65+4*65+8*64+4*65); got != want {
		t.Fatalf("dense overlay PatchBytes = %d, want %d", got, want)
	}
}
