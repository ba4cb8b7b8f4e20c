package trie

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

// enumerate walks the trie depth-first through the public iterator API
// and returns every tuple, in order.
func enumerate(t *Trie) [][]int64 {
	var out [][]int64
	if t.Arity() == 0 {
		return out
	}
	tup := make([]int64, t.Arity())
	it := t.NewIterator()
	var walk func(d int)
	walk = func(d int) {
		it.Open()
		for !it.AtEnd() {
			tup[d] = it.Key()
			if d == t.Arity()-1 {
				out = append(out, append([]int64(nil), tup...))
			} else {
				walk(d + 1)
			}
			it.Next()
		}
		it.Up()
	}
	walk(0)
	return out
}

func equalTuples(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if relation.CompareTuples(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// patchOf builds the patched trie for newRel relative to base (both
// unpermuted), mimicking what the registry derives from Store lineage.
func patchOf(t *testing.T, base, newRel *relation.Relation, c *stats.Counters) *Trie {
	t.Helper()
	bt := Build(base, nil)
	pt, err := BuildPatched(bt, newRel.Subtract(base), base.Subtract(newRel), c)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestPatchedTrieEnumerates(t *testing.T) {
	base := relation.MustNew("E", 2, [][]int64{
		{1, 2}, {1, 4}, {2, 3}, {3, 1}, {3, 5}, {5, 5},
	})
	newRel := relation.MustNew("E", 2, [][]int64{
		{1, 3}, {1, 4}, {2, 3}, {3, 5}, {4, 1}, {5, 5}, {5, 6},
	}) // deletes (1,2),(3,1); inserts (1,3),(4,1),(5,6)

	var c stats.Counters
	pt := patchOf(t, base, newRel, &c)
	if !pt.Patched() {
		t.Fatal("patched trie does not report Patched")
	}
	if c.TriePatches != 1 {
		t.Fatalf("TriePatches = %d, want 1", c.TriePatches)
	}
	want := enumerate(Build(newRel, nil))
	got := enumerate(pt)
	if !equalTuples(got, want) {
		t.Fatalf("patched enumeration:\n got %v\nwant %v", got, want)
	}
	if pt.PatchBytes() <= 0 || pt.MemoryBytes() <= pt.PatchBytes() {
		t.Fatalf("byte accounting: patch=%d total=%d", pt.PatchBytes(), pt.MemoryBytes())
	}
}

func TestPatchedTrieWholeNodeDeleted(t *testing.T) {
	// Deleting every tuple under root value 1 must hide the root node
	// itself, including when a new tuple re-creates the value via the
	// overlay.
	base := relation.MustNew("E", 2, [][]int64{{1, 2}, {1, 3}, {2, 2}})
	for _, tc := range []struct {
		name   string
		tuples [][]int64
	}{
		{"drop-node", [][]int64{{2, 2}}},
		{"reinsert-value", [][]int64{{1, 9}, {2, 2}}},
		{"empty", nil},
	} {
		newRel := relation.MustNew("E", 2, tc.tuples)
		pt := patchOf(t, base, newRel, nil)
		want := enumerate(Build(newRel, nil))
		got := enumerate(pt)
		if !equalTuples(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", tc.name, got, want)
		}
	}
}

func TestPatchedTrieErrors(t *testing.T) {
	base := relation.MustNew("E", 2, [][]int64{{1, 2}})
	bt := Build(base, nil)
	empty := relation.MustNew("E", 2, nil)

	// Deleting a tuple the base does not hold is a lineage violation.
	if _, err := BuildPatched(bt, empty, relation.MustNew("E", 2, [][]int64{{9, 9}}), nil); err == nil {
		t.Fatal("missing delete accepted")
	}
	// Patches do not stack.
	pt, err := BuildPatched(bt, relation.MustNew("E", 2, [][]int64{{2, 2}}), empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPatched(pt, empty, empty, nil); err == nil {
		t.Fatal("patch of a patch accepted")
	}
	// Arity mismatches are rejected.
	if _, err := BuildPatched(bt, relation.MustNew("E", 3, nil), empty, nil); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestPatchedTrieLockstepSeeks drives a patched trie and a fresh build
// of the same relation through an identical randomized walk (lockstep);
// every observation (AtEnd, Key, batches) must match exactly.
func TestPatchedTrieLockstepSeeks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 60; round++ {
		arity := 2 + rng.Intn(2)
		dom := int64(3 + rng.Intn(6))
		randRel := func(n int) *relation.Relation {
			b := relation.NewBuilder("E", arity)
			tup := make([]int64, arity)
			for i := 0; i < n; i++ {
				for j := range tup {
					tup[j] = rng.Int63n(dom)
				}
				b.Add(tup...)
			}
			return b.Build()
		}
		base := randRel(8 + rng.Intn(30))
		// Mutate: delete a random subset, insert fresh tuples.
		var dels [][]int64
		for _, tup := range base.Tuples() {
			if rng.Intn(3) == 0 {
				dels = append(dels, tup)
			}
		}
		ins := randRel(rng.Intn(10)).Tuples()
		cur := base
		for _, d := range dels {
			cur = cur.Subtract(relation.MustNew("E", arity, [][]int64{d}))
		}
		cur = cur.Union(relation.MustNew("E", arity, ins))

		pt := patchOf(t, base, cur, nil)
		ft := Build(cur, nil)

		if err := lockstep(rng, pt.NewIterator(), ft.NewIterator(), arity); err != nil {
			t.Fatalf("round %d: %v\nbase=%v cur=%v", round, err, base.Tuples(), cur.Tuples())
		}
	}
}

// TestPatchedLenTolerance pins the estimator contract Trie.Len
// documents for patched tries: Len(d) is base + overlay − dead, which
// never undercounts the live distinct node count and overcounts by at
// most the overlay level size (a value present in both the base and
// the overlay under the same prefix counts twice). The order-cost and
// fanout consumers rely on exactly this tolerance — an estimator
// change that undercounts (starving fanout) or overcounts past the
// overlay (inflating order cost) must fail here.
func TestPatchedLenTolerance(t *testing.T) {
	base := relation.MustNew("R", 2, [][]int64{{1, 1}, {1, 2}, {2, 1}, {3, 5}})
	// adds overlap the base at level 0 (values 1 and 2 exist in both);
	// dels kill the base node 3 entirely.
	adds := relation.MustNew("R", 2, [][]int64{{1, 3}, {2, 9}})
	dels := relation.MustNew("R", 2, [][]int64{{3, 5}})
	bt := Build(base, nil)
	pt, err := BuildPatched(bt, adds, dels, nil)
	if err != nil {
		t.Fatal(err)
	}

	// True distinct prefix counts of the live tuple set
	// {1,1},{1,2},{1,3},{2,1},{2,9}: level 0 has {1,2}, level 1 has 5.
	truth := []int{2, 5}
	overlay := []int{2, 2} // overlay trie level sizes for adds
	for d := 0; d < 2; d++ {
		got := pt.Len(d)
		if got < truth[d] {
			t.Fatalf("Len(%d) = %d undercounts the %d live nodes", d, got, truth[d])
		}
		if got > truth[d]+overlay[d] {
			t.Fatalf("Len(%d) = %d exceeds live %d + overlay %d", d, got, truth[d], overlay[d])
		}
	}
	// Pin the exact estimate so accidental estimator changes surface:
	// level 0: 3 base + 2 overlay − 1 dead; level 1: 4 base + 2 overlay
	// − 1 dead (every node on a fully-deleted path is marked, including
	// the leaf).
	if pt.Len(0) != 4 || pt.Len(1) != 5 {
		t.Fatalf("Len = %d,%d, want 4,5", pt.Len(0), pt.Len(1))
	}
	// The estimator must keep fanout well-defined for the cost model.
	if f := pt.Fanout(0); f <= 0 {
		t.Fatalf("Fanout(0) = %g, want > 0", f)
	}
}
