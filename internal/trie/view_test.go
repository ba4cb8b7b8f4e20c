package trie

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

// lockstep drives two iterators over what must be the same tuple set
// through one randomized Open/Next/SeekGE/NextBatch walk over every
// depth and reports the first observation (AtEnd, Key, a batch) on
// which they differ. Both sides perform exactly the same operations, so
// their charged accesses are comparable afterwards.
func lockstep(rng *rand.Rand, a, b *Iterator, arity int) error {
	bufA, bufB := make([]int64, 3), make([]int64, 3)
	var walk func(d int) error
	walk = func(d int) error {
		a.Open()
		b.Open()
		for {
			if a.AtEnd() != b.AtEnd() {
				return fmt.Errorf("depth %d: AtEnd %v vs %v", d, a.AtEnd(), b.AtEnd())
			}
			if b.AtEnd() {
				break
			}
			ka, kb := a.Key(), b.Key()
			if ka != kb {
				return fmt.Errorf("depth %d: Key %d vs %d", d, ka, kb)
			}
			switch rng.Intn(6) {
			case 0:
				v := kb + rng.Int63n(3) // forward-only seek contract
				a.SeekGE(v)
				b.SeekGE(v)
				continue
			case 1:
				v, n := kb+rng.Int63n(3), 1+rng.Intn(3)
				a.SeekGE(v)
				b.SeekGE(v)
				na, nb := a.NextBatch(bufA[:n]), b.NextBatch(bufB[:n])
				if !slices.Equal(bufA[:na], bufB[:nb]) {
					return fmt.Errorf("depth %d: SeekGE(%d)+NextBatch %v vs %v", d, v, bufA[:na], bufB[:nb])
				}
				continue
			}
			if d+1 < arity {
				if err := walk(d + 1); err != nil {
					return err
				}
			}
			a.Next()
			b.Next()
		}
		a.Up()
		b.Up()
		return nil
	}
	return walk(0)
}

// checkView holds a prefix view to ref, the trie the same construction
// yields over the selected and projected relations: equal arity and
// Len at every depth, and the same keys from a scalar walk, a batched
// walk and randomized lockstep seeks. On materialized tries the charged
// accesses must be equal too; a patched view may charge less than a
// patched ref, which walks over the dead children of a dead node the
// view never enters. want holds the tuples the view must enumerate.
func checkView(t testing.TB, label string, view, ref *Trie, want [][]int64, seed int64) {
	t.Helper()
	if view.Arity() != ref.Arity() {
		t.Fatalf("%s: view arity %d, want %d", label, view.Arity(), ref.Arity())
	}
	for d := 0; d < ref.Arity(); d++ {
		if view.Len(d) != ref.Len(d) {
			t.Fatalf("%s: Len(%d) = %d, want %d", label, d, view.Len(d), ref.Len(d))
		}
	}
	if got := enumerate(view); !equalTuples(got, want) {
		t.Fatalf("%s: view enumerates %v, want %v", label, got, want)
	}
	var cv, cr stats.Counters
	run := func(what string, f func(it *Iterator, keys *[]int64)) {
		t.Helper()
		cv, cr = stats.Counters{}, stats.Counters{}
		vi, ri := view.NewIteratorCounters(&cv), ref.NewIteratorCounters(&cr)
		var got, exp []int64
		f(vi, &got)
		f(ri, &exp)
		vi.Flush()
		ri.Flush()
		sameKeys(t, label+": "+what, got, exp)
		if !view.Patched() && cv != cr {
			t.Fatalf("%s: %s charged %+v, derived trie %+v", label, what, cv, cr)
		}
	}
	run("scalar walk", func(it *Iterator, keys *[]int64) { dfsScalar(it, ref.Arity(), keys) })
	for _, bs := range []int{1, 3} {
		run(fmt.Sprintf("batched walk (block %d)", bs), func(it *Iterator, keys *[]int64) {
			dfsBatch(it, ref.Arity(), make([]int64, bs), keys)
		})
	}
	for i := int64(0); i < 3; i++ {
		cv, cr = stats.Counters{}, stats.Counters{}
		vi, ri := view.NewIteratorCounters(&cv), ref.NewIteratorCounters(&cr)
		if err := lockstep(rand.New(rand.NewSource(seed+i)), vi, ri, ref.Arity()); err != nil {
			t.Fatalf("%s: lockstep: %v", label, err)
		}
		vi.Flush()
		ri.Flush()
		if !view.Patched() && cv != cr {
			t.Fatalf("%s: lockstep charged %+v, derived trie %+v", label, cv, cr)
		}
	}
}

// viewFixture is one relation history indexed under one column order
// with the constant columns first: the three kinds of trie a registry
// hands out, and how to derive the relation a constant prefix selects.
type viewFixture struct {
	base, cur *relation.Relation // unpermuted
	constCols []int
	varCols   []int
	tries     map[string]*Trie // built, opened, patched — all over cur
}

func newViewFixture(t testing.TB, base, cur *relation.Relation, constCols, varCols []int) *viewFixture {
	t.Helper()
	perm := append(append([]int(nil), constCols...), varCols...)
	permuted := func(r *relation.Relation) *relation.Relation {
		p, err := r.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	built := Build(permuted(cur), nil)
	levels, err := built.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	opened, err := FromLevels(levels)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := BuildPatched(Build(permuted(base), nil),
		permuted(cur.Subtract(base)), permuted(base.Subtract(cur)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return &viewFixture{base: base, cur: cur, constCols: constCols, varCols: varCols,
		tries: map[string]*Trie{"built": built, "opened": opened, "patched": patched}}
}

// derive is the relation a private index of the atom would be built
// from: r selected on the constants and projected onto the variable
// columns in level order (the projection does the permuting).
func (f *viewFixture) derive(t testing.TB, r *relation.Relation, prefix []int64) *relation.Relation {
	t.Helper()
	consts := make(map[int]int64, len(prefix))
	for i, c := range f.constCols {
		consts[c] = prefix[i]
	}
	sel, err := r.Select(consts, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := sel.Project(f.varCols)
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

// check binds prefix on every kind of trie and holds each view to the
// same kind of trie over the derived relations.
func (f *viewFixture) check(t testing.TB, label string, prefix []int64, seed int64) {
	t.Helper()
	wantRel := f.derive(t, f.cur, prefix)
	for _, kind := range []string{"built", "opened", "patched"} {
		view, found := f.tries[kind].Under(prefix)
		if found != (wantRel.Len() > 0) {
			t.Fatalf("%s/%s: found = %v over %d selected tuples", label, kind, found, wantRel.Len())
		}
		ref := Build(wantRel, nil)
		if kind == "patched" {
			var err error
			db := f.derive(t, f.base, prefix)
			ref, err = BuildPatched(Build(db, nil), wantRel.Subtract(db), db.Subtract(wantRel), nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		checkView(t, label+"/"+kind, view, ref, wantRel.Tuples(), seed)
	}
}

// TestUnderMatchesDerived pins the view contract: over random relations
// of arity 2–4, every choice of constant columns, and every constant
// prefix a base or current tuple carries plus one none does, the view
// under the prefix is indistinguishable — keys, Len, charged accesses —
// from a trie over the selected, projected and permuted relation, on
// built, store-opened and patched tries alike.
func TestUnderMatchesDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	kinds := map[string]int{}
	for round := 0; round < 24; round++ {
		arity := 2 + round%3
		dom := int64(3 + rng.Intn(3))
		randRel := func(n int) *relation.Relation {
			b := relation.NewBuilder("R", arity)
			tup := make([]int64, arity)
			for i := 0; i < n; i++ {
				for j := range tup {
					tup[j] = rng.Int63n(dom)
				}
				b.Add(tup...)
			}
			return b.Build()
		}
		base := randRel(6 + rng.Intn(30))
		var dels [][]int64
		for _, tup := range base.Tuples() {
			if rng.Intn(3) == 0 {
				dels = append(dels, tup)
			}
		}
		cur := base.Subtract(relation.MustNew("R", arity, dels)).Union(randRel(rng.Intn(8)))

		for mask := 1; mask < 1<<arity-1; mask++ {
			var constCols, varCols []int
			for c := 0; c < arity; c++ {
				if mask&(1<<c) != 0 {
					constCols = append(constCols, c)
				} else {
					varCols = append(varCols, c)
				}
			}
			rng.Shuffle(len(varCols), func(i, j int) { varCols[i], varCols[j] = varCols[j], varCols[i] })
			f := newViewFixture(t, base, cur, constCols, varCols)

			absent := make([]int64, len(constCols))
			for i := range absent {
				absent[i] = dom + 1
			}
			carried, err := base.Union(cur).Project(constCols)
			if err != nil {
				t.Fatal(err)
			}
			for _, prefix := range append(carried.Tuples(), absent) {
				inBase := f.derive(t, base, prefix).Len() > 0
				inCur := f.derive(t, cur, prefix).Len() > 0
				switch {
				case inBase && inCur:
					kinds["present"]++
				case inCur:
					kinds["overlay-only"]++
				case inBase:
					kinds["dead-in-base"]++
				default:
					kinds["absent"]++
				}
				label := fmt.Sprintf("round %d consts %v=%v vars %v", round, constCols, prefix, varCols)
				f.check(t, label, prefix, rng.Int63())
			}
		}
	}
	for _, k := range []string{"present", "absent", "overlay-only", "dead-in-base"} {
		if kinds[k] == 0 {
			t.Errorf("no %s constant was generated: %v", k, kinds)
		}
	}
}

// TestUnderEdges covers the corners the random sweep cannot: the empty
// prefix, a view of a view, the refused full-arity prefix and the
// snapshot guard.
func TestUnderEdges(t *testing.T) {
	r := relation.MustNew("R", 3, [][]int64{{1, 2, 3}, {1, 2, 4}, {1, 5, 6}, {2, 2, 2}})
	tr := Build(r, nil)

	whole, found := tr.Under(nil)
	if !found || !equalTuples(enumerate(whole), r.Tuples()) {
		t.Fatalf("empty prefix: found %v, tuples %v", found, enumerate(whole))
	}
	one, _ := tr.Under([]int64{1})
	two, found := one.Under([]int64{2})
	if want := [][]int64{{3}, {4}}; !found || !equalTuples(enumerate(two), want) {
		t.Fatalf("view of a view: found %v, tuples %v, want %v", found, enumerate(two), want)
	}
	if _, err := one.Snapshot(); err == nil {
		t.Error("a prefix view snapshots")
	}
	if _, found := tr.Under([]int64{1, 3}); found {
		t.Error("a prefix no tuple carries is found")
	}
	defer func() {
		if recover() == nil {
			t.Error("a full-arity prefix is accepted")
		}
	}()
	tr.Under([]int64{1, 2, 3})
}
