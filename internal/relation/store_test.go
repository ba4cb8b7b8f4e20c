package relation

import (
	"math/rand"
	"testing"
)

func tuplesOf(r *Relation) map[[2]int64]bool {
	m := make(map[[2]int64]bool)
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		m[[2]int64{t[0], t[1]}] = true
	}
	return m
}

func TestSetOps(t *testing.T) {
	a := MustNew("E", 2, [][]int64{{1, 2}, {2, 3}, {3, 4}})
	b := MustNew("E", 2, [][]int64{{2, 3}, {4, 5}})

	u := a.Union(b)
	if u.Len() != 4 || !u.Contains([]int64{4, 5}) || !u.Contains([]int64{1, 2}) {
		t.Fatalf("union = %v", u.Tuples())
	}
	s := a.Subtract(b)
	if s.Len() != 2 || s.Contains([]int64{2, 3}) {
		t.Fatalf("subtract = %v", s.Tuples())
	}
	x := a.Intersect(b)
	if x.Len() != 1 || !x.Contains([]int64{2, 3}) {
		t.Fatalf("intersect = %v", x.Tuples())
	}
	// Empty operands short-circuit without copying.
	empty := MustNew("E", 2, nil)
	if a.Union(empty) != a || a.Subtract(empty) != a {
		t.Fatal("empty operand should return the receiver")
	}
	if empty.Intersect(a).Len() != 0 {
		t.Fatal("intersect with empty should be empty")
	}
}

func TestStoreApplyDelta(t *testing.T) {
	base := MustNew("E", 2, [][]int64{{1, 2}, {2, 3}, {3, 1}, {4, 5}})
	s := NewStore(base)
	s.SetCompactFraction(10) // keep lineage through the whole test

	v0 := s.Version()
	if v0.Num != 0 || v0.Rel != base || v0.Patched() {
		t.Fatalf("fresh store version = %+v", v0)
	}

	v1, changed, err := s.ApplyDelta([][]int64{{5, 6}}, [][]int64{{4, 5}})
	if err != nil || !changed {
		t.Fatalf("ApplyDelta: changed=%v err=%v", changed, err)
	}
	if v1.Num != 1 || v1.Rel.Len() != 4 {
		t.Fatalf("v1 = %+v (len %d)", v1, v1.Rel.Len())
	}
	if !v1.Rel.Contains([]int64{5, 6}) || v1.Rel.Contains([]int64{4, 5}) {
		t.Fatalf("v1 tuples = %v", v1.Rel.Tuples())
	}
	if v1.Base != base || v1.Adds.Len() != 1 || v1.Dels.Len() != 1 || !v1.Patched() {
		t.Fatalf("v1 lineage: base ok=%v adds=%d dels=%d", v1.Base == base, v1.Adds.Len(), v1.Dels.Len())
	}

	// Re-inserting a deleted tuple cancels the delete in the lineage.
	v2, changed, err := s.ApplyDelta([][]int64{{4, 5}}, nil)
	if err != nil || !changed {
		t.Fatalf("re-insert: changed=%v err=%v", changed, err)
	}
	if v2.Dels.Len() != 0 || v2.Adds.Len() != 1 {
		t.Fatalf("v2 lineage adds=%d dels=%d, want 1/0", v2.Adds.Len(), v2.Dels.Len())
	}

	// No-op deltas do not bump the version or replace the relation.
	v3, changed, err := s.ApplyDelta([][]int64{{4, 5}}, [][]int64{{9, 9}})
	if err != nil || changed {
		t.Fatalf("no-op delta: changed=%v err=%v", changed, err)
	}
	if v3.Num != v2.Num || v3.Rel != v2.Rel {
		t.Fatal("no-op delta replaced the version")
	}

	// Deletes-then-inserts of the same tuple keep it (delete first).
	v4, changed, err := s.ApplyDelta([][]int64{{1, 2}}, [][]int64{{1, 2}})
	if err != nil || changed {
		t.Fatalf("delete+insert same tuple: changed=%v err=%v", changed, err)
	}
	if !v4.Rel.Contains([]int64{1, 2}) {
		t.Fatal("tuple deleted despite simultaneous insert")
	}

	// Arity mismatches are data errors, not panics.
	if _, _, err := s.ApplyDelta([][]int64{{1}}, nil); err == nil {
		t.Fatal("bad-arity insert accepted")
	}

	// Undoing the pending delta lands on the base itself — a new version
	// number over the old pointer, so whatever is indexed for the base
	// serves it — and the base has not moved: not a compaction.
	v5, changed, err := s.ApplyDelta(nil, [][]int64{{5, 6}})
	if err != nil || !changed {
		t.Fatalf("undo: changed=%v err=%v", changed, err)
	}
	if v5.Rel != base || v5.Base != base || v5.Patched() || v5.Num != v2.Num+1 {
		t.Fatalf("undo: rel is base=%v base kept=%v patched=%v num=%d, want the base itself at version %d",
			v5.Rel == base, v5.Base == base, v5.Patched(), v5.Num, v2.Num+1)
	}
}

func TestStoreCompaction(t *testing.T) {
	base := MustNew("E", 2, [][]int64{{1, 2}, {2, 3}, {3, 4}, {4, 5}})
	s := NewStore(base) // default fraction: 0.25 of 4 tuples => 1 delta tuple tolerated

	v1, _, err := s.ApplyDelta([][]int64{{9, 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Patched() {
		t.Fatalf("one-tuple delta compacted early: %+v", v1)
	}
	v2, _, err := s.ApplyDelta([][]int64{{8, 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Patched() || v2.Base != v2.Rel {
		t.Fatalf("crossover delta did not compact: adds=%d dels=%d", v2.Adds.Len(), v2.Dels.Len())
	}
	// After compaction the next small delta patches against the new base.
	v3, _, err := s.ApplyDelta(nil, [][]int64{{9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Patched() || v3.Base != v2.Rel {
		t.Fatalf("post-compaction delta lineage wrong: %+v", v3)
	}
}

// TestStoreRandomizedAgainstMap fuzzes ApplyDelta against a plain map
// model: after every delta the store's relation, and the reconstruction
// (Base − Dels) ∪ Adds, must both equal the model exactly.
func TestStoreRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := MustNew("E", 2, [][]int64{{0, 1}, {1, 2}, {2, 0}})
	s := NewStore(base)
	model := tuplesOf(base)

	for step := 0; step < 200; step++ {
		var ins, del [][]int64
		for i := 0; i < rng.Intn(4); i++ {
			ins = append(ins, []int64{int64(rng.Intn(8)), int64(rng.Intn(8))})
		}
		for i := 0; i < rng.Intn(4); i++ {
			del = append(del, []int64{int64(rng.Intn(8)), int64(rng.Intn(8))})
		}
		v, _, err := s.ApplyDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range del {
			delete(model, [2]int64{d[0], d[1]})
		}
		for _, a := range ins {
			model[[2]int64{a[0], a[1]}] = true
		}
		if got := tuplesOf(v.Rel); len(got) != len(model) {
			t.Fatalf("step %d: store has %d tuples, model %d", step, len(got), len(model))
		}
		for tup := range model {
			if !v.Rel.Contains([]int64{tup[0], tup[1]}) {
				t.Fatalf("step %d: missing %v", step, tup)
			}
		}
		recon := v.Base.Subtract(v.Dels).Union(v.Adds)
		if recon.Len() != v.Rel.Len() || recon.Subtract(v.Rel).Len() != 0 {
			t.Fatalf("step %d: lineage does not reconstruct the relation", step)
		}
		if v.Adds.Intersect(v.Base).Len() != 0 || v.Dels.Subtract(v.Base).Len() != 0 {
			t.Fatalf("step %d: lineage invariants broken", step)
		}
	}
}
