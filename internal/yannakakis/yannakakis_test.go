package yannakakis

import (
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
)

func autoTD(t *testing.T, q *cq.Query) *td.TD {
	t.Helper()
	tree, _ := td.Select(q, td.Options{}, td.CostConfig{})
	if err := tree.Validate(q); err != nil {
		t.Fatalf("selected TD invalid: %v", err)
	}
	return tree
}

func checkYTD(t *testing.T, q *cq.Query, db *relation.DB) {
	t.Helper()
	tree := autoTD(t, q)
	want, err := naive.Count(q, db)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	e, err := New(q, db, tree, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := e.Count(); got != want {
		t.Errorf("YTD count = %d, want %d (td=\n%s)", got, want, tree)
	}

	wantTuples, err := naive.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	e.Eval(func(tup []int64) bool {
		got = append(got, append([]int64(nil), tup...))
		return true
	})
	sort.Slice(got, func(i, j int) bool { return relation.CompareTuples(got[i], got[j]) < 0 })
	if len(got) != len(wantTuples) {
		t.Fatalf("YTD eval: %d tuples, want %d", len(got), len(wantTuples))
	}
	for i := range got {
		if relation.CompareTuples(got[i], wantTuples[i]) != 0 {
			t.Fatalf("YTD eval tuple %d = %v, want %v", i, got[i], wantTuples[i])
		}
	}
}

func TestYTDAgreesWithNaive(t *testing.T) {
	g := dataset.ErdosRenyi(28, 0.13, 21)
	db := g.DB(false)
	cases := []struct {
		name string
		q    *cq.Query
	}{
		{"3-path", queries.Path(3)},
		{"4-path", queries.Path(4)},
		{"5-path", queries.Path(5)},
		{"4-cycle", queries.Cycle(4)},
		{"5-cycle", queries.Cycle(5)},
		{"3-cycle", queries.Cycle(3)}, // singleton TD: one bag, no reduction
		{"lollipop", queries.Lollipop(3, 2)},
		{"5-rand", queries.Random(5, 0.5, 17)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkYTD(t, tc.q, db) })
	}
}

func TestYTDOnIMDB(t *testing.T) {
	db := dataset.IMDBCast(dataset.IMDBConfig{Persons: 35, Movies: 12, Appearances: 120, PersonSkew: 1.8, Seed: 6})
	checkYTD(t, queries.IMDBCycle(2), db)
	checkYTD(t, queries.IMDBCycle(3), db)
}

func TestYTDEarlyStop(t *testing.T) {
	g := dataset.ErdosRenyi(20, 0.2, 4)
	db := g.DB(false)
	q := queries.Path(3)
	e, err := New(q, db, autoTD(t, q), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	e.Eval(func([]int64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop delivered %d tuples, want 3", n)
	}
}

func TestYTDCountsAccesses(t *testing.T) {
	g := dataset.ErdosRenyi(25, 0.15, 8)
	db := g.DB(false)
	q := queries.Path(4)
	var c stats.Counters
	e, err := New(q, db, autoTD(t, q), &c)
	if err != nil {
		t.Fatal(err)
	}
	e.Count()
	if c.Total() == 0 {
		t.Error("YTD performed no counted memory accesses")
	}
	if len(e.bags) != e.tree.N() {
		t.Errorf("%d bags materialized, want %d", len(e.bags), e.tree.N())
	}
}
