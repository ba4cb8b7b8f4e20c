package leapfrog

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/trie"
)

// evalTuples materializes the result of Eval in order-variable order.
func evalTuples(inst *Instance) [][]int64 {
	var out [][]int64
	Eval(inst, func(mu []int64) bool {
		out = append(out, append([]int64(nil), mu...))
		return true
	})
	return out
}

func edgeDB(edges [][]int64) *relation.DB {
	return relation.NewDB(relation.MustNew("E", 2, edges))
}

func TestTriangleCount(t *testing.T) {
	// Directed triangles in a small graph.
	db := edgeDB([][]int64{{1, 2}, {2, 3}, {1, 3}, {3, 1}, {2, 1}})
	q := queries.Cycle(3) // E(x1,x2), E(x2,x3), E(x1,x3)
	inst, err := Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naive.Count(q, db)
	if got := Count(inst); got != want {
		t.Fatalf("triangle count = %d, want %d", got, want)
	}
}

func TestCountMatchesNaiveOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(12)
		var edges [][]int64
		for i := 0; i < 3*n; i++ {
			edges = append(edges, []int64{int64(rng.Intn(n)), int64(rng.Intn(n))})
		}
		db := edgeDB(edges)
		qs := []*cq.Query{queries.Path(3), queries.Path(4), queries.Cycle(3), queries.Cycle(4)}
		q := qs[trial%len(qs)]
		want, err := naive.Count(q, db)
		if err != nil {
			t.Fatal(err)
		}
		// Try several random orders: LFTJ must be order-independent.
		vars := append([]string(nil), q.Vars()...)
		for o := 0; o < 3; o++ {
			rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
			inst, err := Build(q, db, vars, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := Count(inst); got != want {
				t.Fatalf("trial %d order %v: count = %d, want %d", trial, vars, got, want)
			}
		}
	}
}

func TestEvalMatchesNaive(t *testing.T) {
	g := dataset.ErdosRenyi(18, 0.2, 5)
	db := g.DB(false)
	q := queries.Path(4)
	inst, err := Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := evalTuples(inst)
	sort.Slice(got, func(i, j int) bool { return relation.CompareTuples(got[i], got[j]) < 0 })
	want, _ := naive.Eval(q, db)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("eval mismatch: %d vs %d tuples", len(got), len(want))
	}
}

func TestEvalEarlyStop(t *testing.T) {
	g := dataset.ErdosRenyi(18, 0.3, 6)
	db := g.DB(false)
	q := queries.Path(3)
	inst, err := Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	Eval(inst, func([]int64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop emitted %d, want 5", n)
	}
}

func TestConstantsAndRepeatedVars(t *testing.T) {
	db := edgeDB([][]int64{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 1}})
	// Self loops: E(x,x).
	qSelf := cq.New(cq.Atom{Rel: "E", Args: []cq.Term{cq.V("x"), cq.V("x")}})
	inst, err := Build(qSelf, db, qSelf.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := Count(inst); got != 2 {
		t.Fatalf("self-loop count = %d, want 2", got)
	}
	// Constant subject: E(1, y), E(y, z).
	qConst := cq.New(
		cq.Atom{Rel: "E", Args: []cq.Term{cq.C(1), cq.V("y")}},
		cq.NewAtom("E", "y", "z"),
	)
	want, _ := naive.Count(qConst, db)
	inst2, err := Build(qConst, db, qConst.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := Count(inst2); got != want {
		t.Fatalf("constant-atom count = %d, want %d", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	db := edgeDB([][]int64{{1, 2}})
	q := queries.Path(3)
	if _, err := Build(q, db, []string{"x1", "x2"}, nil); err == nil {
		t.Error("short order accepted")
	}
	if _, err := Build(q, db, []string{"x1", "x2", "x2"}, nil); err == nil {
		t.Error("duplicate order variable accepted")
	}
	if _, err := Build(q, db, []string{"x1", "x2", "bogus"}, nil); err == nil {
		t.Error("unknown order variable accepted")
	}
	if _, err := Build(cq.New(cq.NewAtom("missing", "a", "b")), db, []string{"a", "b"}, nil); err == nil {
		t.Error("missing relation accepted")
	}
	if _, err := Build(cq.New(cq.NewAtom("E", "a", "b", "c")), db, []string{"a", "b", "c"}, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestEmptyRelationYieldsZero(t *testing.T) {
	db := relation.NewDB(
		relation.MustNew("E", 2, [][]int64{{1, 2}}),
		relation.MustNew("F", 2, nil),
	)
	q := cq.New(cq.NewAtom("E", "a", "b"), cq.NewAtom("F", "b", "c"))
	inst, err := Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Empty() {
		t.Error("Empty() false with an empty atom relation")
	}
	if got := Count(inst); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	if tuples := evalTuples(inst); len(tuples) != 0 {
		t.Fatalf("eval emitted %d tuples, want 0", len(tuples))
	}
}

func TestFrogIntersection(t *testing.T) {
	mk := func(vals ...int64) *trie.Iterator {
		tuples := make([][]int64, len(vals))
		for i, v := range vals {
			tuples[i] = []int64{v}
		}
		tr := trie.Build(relation.MustNew("R", 1, tuples), nil)
		it := tr.NewIterator()
		it.Open()
		return it
	}
	f := NewFrog([]*trie.Iterator{
		mk(1, 3, 4, 5, 6, 7, 8, 9, 11),
		mk(1, 2, 3, 5, 8, 13),
		mk(2, 3, 5, 7, 11, 13),
	})
	var got []int64
	for ok := f.Init(); ok; ok = f.Next() {
		got = append(got, f.Key())
	}
	want := []int64{3, 5} // also 8? 8 ∉ third; 13 ∉ first; 11 ∉ second
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intersection = %v, want %v", got, want)
	}
	if !f.AtEnd() {
		t.Error("frog not AtEnd after exhaustion")
	}
}

func TestFrogSeekGE(t *testing.T) {
	mk := func(vals ...int64) *trie.Iterator {
		tuples := make([][]int64, len(vals))
		for i, v := range vals {
			tuples[i] = []int64{v}
		}
		tr := trie.Build(relation.MustNew("R", 1, tuples), nil)
		it := tr.NewIterator()
		it.Open()
		return it
	}
	f := NewFrog([]*trie.Iterator{mk(1, 4, 7, 10), mk(1, 2, 4, 7, 10)})
	if !f.Init() || f.Key() != 1 {
		t.Fatal("Init failed")
	}
	if !f.SeekGE(5) || f.Key() != 7 {
		t.Fatalf("SeekGE(5) landed on %d", f.Key())
	}
	if f.SeekGE(11) {
		t.Fatal("SeekGE(11) should exhaust")
	}
}

// Property (testing/quick style over random sets): the frog intersection
// of k random sorted sets equals the map-based intersection.
func TestFrogIntersectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(3)
		sets := make([]map[int64]bool, k)
		its := make([]*trie.Iterator, k)
		for i := 0; i < k; i++ {
			n := 1 + rng.Intn(30)
			sets[i] = make(map[int64]bool)
			var tuples [][]int64
			for j := 0; j < n; j++ {
				v := int64(rng.Intn(40))
				if !sets[i][v] {
					sets[i][v] = true
					tuples = append(tuples, []int64{v})
				}
			}
			tr := trie.Build(relation.MustNew("R", 1, tuples), nil)
			it := tr.NewIterator()
			it.Open()
			its[i] = it
		}
		var want []int64
		for v := int64(0); v < 40; v++ {
			all := true
			for i := 0; i < k; i++ {
				if !sets[i][v] {
					all = false
					break
				}
			}
			if all {
				want = append(want, v)
			}
		}
		f := NewFrog(its)
		var got []int64
		for ok := f.Init(); ok; ok = f.Next() {
			got = append(got, f.Key())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: intersection = %v, want %v", trial, got, want)
		}
	}
}

func TestEstimateOrderCostPrefersSelectiveFirst(t *testing.T) {
	// A skewed graph: starting from the skewed side should look cheaper
	// to the estimator than a poor order on a long path query.
	g := dataset.PreferentialAttachment(300, 4, 15)
	db := g.DB(false)
	q := queries.Path(4)
	natural, err := Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if natural.EstimateOrderCost() <= 0 {
		t.Error("order cost estimate not positive")
	}
	var c stats.Counters
	inst2, err := Build(q, db, q.Vars(), &c)
	if err != nil {
		t.Fatal(err)
	}
	Count(inst2)
	if c.TrieAccesses == 0 {
		t.Error("count performed no counted accesses")
	}
}
