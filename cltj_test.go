package cltj

import (
	"context"
	"errors"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/td"
)

func facadeDB() *DB {
	return dataset.ErdosRenyi(25, 0.15, 44).DB(false)
}

func TestFacadeCountsAgree(t *testing.T) {
	db := facadeDB()
	for _, q := range []*Query{
		queries.Path(4),
		queries.Cycle(4),
		queries.Lollipop(3, 1),
	} {
		want, err := naive.Count(q, db)
		if err != nil {
			t.Fatal(err)
		}
		clftj, err := Count(q, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lftj, err := CountLFTJ(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		ytd, err := CountYTD(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := CountPairwise(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]int64{"CLFTJ": clftj, "LFTJ": lftj, "YTD": ytd, "pairwise": pw} {
			if got != want {
				t.Errorf("%s: %s = %d, want %d", q, name, got, want)
			}
		}
	}
}

func TestFacadeEval(t *testing.T) {
	db := facadeDB()
	q := queries.Path(3)
	want, err := naive.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	order, err := Eval(q, db, Options{}, func(mu []int64) bool {
		got = append(got, append([]int64(nil), mu...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(q.Vars()) {
		t.Fatalf("order = %v", order)
	}
	// Reorder to q.Vars() and compare as sets.
	pos := make(map[string]int)
	for d, v := range order {
		pos[v] = d
	}
	for i, tup := range got {
		fixed := make([]int64, len(tup))
		for j, v := range q.Vars() {
			fixed[j] = tup[pos[v]]
		}
		got[i] = fixed
	}
	sort.Slice(got, func(i, j int) bool { return relation.CompareTuples(got[i], got[j]) < 0 })
	if len(got) != len(want) {
		t.Fatalf("eval produced %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if relation.CompareTuples(got[i], want[i]) != 0 {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFacadePrepare(t *testing.T) {
	db := facadeDB()
	q := queries.Cycle(4)
	want, err := naive.Count(q, db)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := Prepare(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Order()) != len(q.Vars()) || stmt.Plan() == nil {
		t.Fatalf("stmt order %v / plan %v", stmt.Order(), stmt.Plan())
	}

	// Repeated executions of the one compiled plan.
	for i := 0; i < 3; i++ {
		got, err := stmt.Count(context.Background())
		if err != nil || got != want {
			t.Fatalf("run %d: Count = %d, %v; want %d", i, got, err, want)
		}
	}

	// Rows streams the same result set, one fresh slice per row.
	var rows int64
	for row, err := range stmt.Rows(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != len(stmt.Order()) {
			t.Fatalf("row %v misaligned with order %v", row, stmt.Order())
		}
		rows++
	}
	if rows != want {
		t.Fatalf("Rows yielded %d tuples, want %d", rows, want)
	}

	// Breaking out stops the scan cleanly.
	seen := 0
	for _, err := range stmt.Rows(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if seen++; seen == 2 {
			break
		}
	}

	// A cancelled context surfaces as the final error pair.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ctxErr error
	for _, err := range stmt.Rows(ctx) {
		ctxErr = err
	}
	if !errors.Is(ctxErr, context.Canceled) {
		t.Fatalf("cancelled Rows err = %v", ctxErr)
	}
	if _, err := stmt.Count(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Count err = %v", err)
	}

	if _, err := Prepare(q, NewDB(), Options{}); err == nil {
		t.Fatal("Prepare against an empty DB must fail")
	}
}

// TestFacadeRowsWorkers checks that Rows honours Options.Workers: a
// statement sharded over two workers yields the one-worker sequence row
// for row.
func TestFacadeRowsWorkers(t *testing.T) {
	db := facadeDB()
	q := queries.Path(3)
	rows := func(workers int) [][]int64 {
		stmt, err := Prepare(q, db, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]int64
		for row, err := range stmt.Rows(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, row)
		}
		return out
	}
	want := rows(1)
	if len(want) < 2 {
		t.Fatalf("Path(3) over the facade graph yields %d rows, too few to shard", len(want))
	}
	if got := rows(2); !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
		t.Fatalf("Rows at 2 workers yielded %d rows %v, want the 1-worker sequence %v", len(got), got, want)
	}
}

func TestFacadeExplicitTD(t *testing.T) {
	db := facadeDB()
	q := queries.Path(4)
	tds := EnumerateTDs(q)
	if len(tds) == 0 {
		t.Fatal("no TDs enumerated")
	}
	want, _ := naive.Count(q, db)
	for _, tree := range tds {
		got, err := Count(q, db, Options{TD: tree})
		if err != nil {
			t.Fatalf("explicit TD: %v\n%s", err, tree)
		}
		if got != want {
			t.Errorf("explicit TD count = %d, want %d\n%s", got, want, tree)
		}
	}
}

func TestFacadeBadOrderRejected(t *testing.T) {
	db := facadeDB()
	q := queries.Path(4)
	tds := EnumerateTDs(q)
	var multi *TD
	for _, tree := range tds {
		if tree.N() > 1 {
			multi = tree
			break
		}
	}
	if multi == nil {
		t.Skip("no multi-bag TD for 4-path")
	}
	// Reversed natural order is not strongly compatible with any
	// multi-bag TD rooted at x1's bag.
	rev := []string{"x4", "x3", "x2", "x1"}
	if _, err := NewPlan(q, db, Options{TD: multi, Order: rev}); err == nil {
		// Some TDs may actually be compatible with the reversed order;
		// only fail when the TD's own derived order disagrees and
		// verification passed anyway.
		qvars := q.Vars()
		orderIdx := make([]int, len(rev))
		for d, name := range rev {
			for i, v := range qvars {
				if v == name {
					orderIdx[d] = i
				}
			}
		}
		if !multi.StronglyCompatible(orderIdx) {
			t.Error("incompatible order accepted")
		}
	}
}

func TestFacadeMustRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRelation did not panic on bad input")
		}
	}()
	MustRelation("R", 2, [][]int64{{1}})
}

func TestFacadeConstructors(t *testing.T) {
	r, err := NewRelation("R", 2, [][]int64{{1, 2}})
	if err != nil || r.Len() != 1 {
		t.Fatal("NewRelation failed")
	}
	q := NewQuery(NewAtom("R", "x", "y"))
	if q.String() != "R(x,y)" {
		t.Fatalf("query = %s", q)
	}
	if !V("x").IsVar() || C(1).IsVar() {
		t.Fatal("term constructors wrong")
	}
	db := NewDB(r)
	if _, err := db.Get("R"); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeWorkers checks the parallel knob end to end: every worker
// setting must produce the sequential count, for both CLFTJ and LFTJ.
func TestFacadeWorkers(t *testing.T) {
	db := facadeDB()
	for _, q := range []*Query{
		queries.Cycle(5),
		queries.Clique(4),
	} {
		want, err := Count(q, db, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 4} {
			got, err := Count(q, db, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: Count(Workers: %d) = %d, want %d", q, workers, got, want)
			}
			// Sharded LFTJ: the one-bag TD with caching disabled.
			lftj, err := Count(q, db, Options{
				TD:      td.Singleton(len(q.Vars())),
				Policy:  Policy{Disabled: true},
				Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if lftj != want {
				t.Errorf("%s: one-bag LFTJ (Workers: %d) = %d, want %d", q, workers, lftj, want)
			}
		}
	}
}

// TestFacadeSharedTries drives Count through a shared registry: counts
// must match private-trie runs, and a warm registry must serve repeated
// queries without a single trie build.
func TestFacadeSharedTries(t *testing.T) {
	db := facadeDB()
	reg := NewTrieRegistry(0)
	for _, q := range []*Query{queries.Cycle(4), queries.Path(4), queries.Cycle(4)} {
		want, err := Count(q, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var c Counters
		got, err := Count(q, db, Options{Tries: reg, Counters: &c})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: shared-trie count %d, want %d", q, got, want)
		}
	}
	var c Counters
	if _, err := Count(queries.Cycle(4), db, Options{Tries: reg, Counters: &c}); err != nil {
		t.Fatal(err)
	}
	if c.TrieBuilds != 0 {
		t.Errorf("warm registry run built %d tries, want 0", c.TrieBuilds)
	}
	if s := reg.Stats(); s.Hits == 0 || s.Builds == 0 {
		t.Errorf("registry stats %+v, want both hits and builds", s)
	}
}

// TestFacadeEngine exercises the resident-service facade end to end.
func TestFacadeEngine(t *testing.T) {
	db := facadeDB()
	q := queries.Cycle(4)
	want, err := Count(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, EngineConfig{Workers: 2})
	resp, err := e.Do(EngineRequest{Query: q.String()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != want {
		t.Errorf("engine count %d, want %d", resp.Count, want)
	}
	if s := e.Stats(); s.Queries != 1 {
		t.Errorf("engine queries = %d, want 1", s.Queries)
	}
}

// TestDefaultOrdererIsGreedy pins the one planner: the facade's NewPlan
// with zero Options and a default-config Engine select exactly the TD
// and order core.AutoSelect (the greedy serving planner) does, on the
// plan-shape golden's shapes and dataset.
func TestDefaultOrdererIsGreedy(t *testing.T) {
	db := dataset.TriadicPA(120, 3, 0.4, 4177).DB(false)
	constQ, err := ParseQuery("E(a,b), E(b,c), E(c,7)")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, EngineConfig{Workers: 1})
	for _, q := range []*Query{
		queries.Clique(3), queries.Clique(4), queries.Path(4), queries.Cycle(4),
		queries.Path(5), queries.Lollipop(3, 2), constQ,
	} {
		wantTD, wantOrder, err := core.AutoSelect(q, db, core.AutoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(entry string, tree *TD, order []string) {
			t.Helper()
			if tree != nil && tree.String() != wantTD.String() {
				t.Errorf("%s: %s selects TD\n%s, AutoSelect selects\n%s", q, entry, tree, wantTD)
			}
			if !slices.Equal(order, wantOrder) {
				t.Errorf("%s: %s selects order %v, AutoSelect selects %v", q, entry, order, wantOrder)
			}
		}
		plan, err := NewPlan(q, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check("NewPlan(Options{})", plan.TD(), plan.Order())
		resp, err := e.Do(EngineRequest{Query: q.String()})
		if err != nil {
			t.Fatal(err)
		}
		check("default Engine", nil, resp.Order)
	}
}
