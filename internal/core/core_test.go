package core

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/leapfrog"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
)

// paperExampleDB is the database of Example 3.1: R(1,1) R(1,2) R(2,1) R(2,2).
func paperExampleDB() *relation.DB {
	return relation.NewDB(relation.MustNew("R", 2, [][]int64{{1, 1}, {1, 2}, {2, 1}, {2, 2}}))
}

// paperExampleQuery is the query of Fig. 3 (left): binary atoms over R
// for the edges x1-x2, x2-x3, x3-x4, x2-x4, x3-x5 and x4-x6.
func paperExampleQuery() *cq.Query {
	return cq.New(
		cq.NewAtom("R", "x1", "x2"),
		cq.NewAtom("R", "x2", "x3"),
		cq.NewAtom("R", "x3", "x4"),
		cq.NewAtom("R", "x2", "x4"),
		cq.NewAtom("R", "x3", "x5"),
		cq.NewAtom("R", "x4", "x6"),
	)
}

// paperExampleTD is the ordered TD on the right of Fig. 3: root {x1,x2},
// child {x2,x3,x4} with children {x3,x5} and {x4,x6}.
func paperExampleTD() *td.TD {
	return td.MustNew(
		[][]int{{0, 1}, {1, 2, 3}, {2, 4}, {3, 5}},
		[]int{-1, 0, 1, 1},
	)
}

func TestPaperExampleCount(t *testing.T) {
	q := paperExampleQuery()
	db := paperExampleDB()
	tree := paperExampleTD()
	if err := tree.Validate(q); err != nil {
		t.Fatalf("example TD invalid: %v", err)
	}
	order := []string{"x1", "x2", "x3", "x4", "x5", "x6"}
	plan, err := NewPlan(q, db, tree, order, nil)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	// On the complete bipartite-ish database every variable can take both
	// values independently: |q(D)| = 2^6 = 64, and the subtree below the
	// {x2,x3,x4} bag has 16 assignments per x2 value (Example 3.1).
	got := plan.Count(Policy{})
	if got.Count != 64 {
		t.Fatalf("count = %d, want 64", got.Count)
	}
	want, err := naive.Count(q, db)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if got.Count != want {
		t.Fatalf("count = %d, naive = %d", got.Count, want)
	}
}

// TestPaperExampleCacheContents pins down the cache semantics of
// Example 3.1: every adhesion is unary over a domain of {1,2}, so with
// unbounded caching exactly 6 intermediate results are stored (two per
// non-root bag), each later re-used (the example's cache[{x2},µ] = 16
// reuse on the second variable scan).
func TestPaperExampleCacheContents(t *testing.T) {
	q := paperExampleQuery()
	db := paperExampleDB()
	var c stats.Counters
	plan, err := NewPlan(q, db, paperExampleTD(), []string{"x1", "x2", "x3", "x4", "x5", "x6"}, &c)
	if err != nil {
		t.Fatal(err)
	}
	res := plan.Count(Policy{})
	if res.Count != 64 {
		t.Fatalf("count = %d, want 64", res.Count)
	}
	if res.CachedEntries != 6 {
		t.Errorf("cached entries = %d, want 6 (two per non-root bag)", res.CachedEntries)
	}
	if c.CacheHits == 0 {
		t.Error("no cache hits in the paper's example")
	}
	// The subtree below the {x2,x3,x4} bag has 16 assignments per x2
	// value (Example 3.1); check via warm caches: a second count over
	// the first run's manager must hit on every bag entry.
	seq := Policy{Workers: 1}
	cm := acquireManager[int64](seq, plan, plan.counters, nil)
	ctx := context.Background()
	if _, err := plan.count(ctx, seq, cm); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	again, err := plan.count(ctx, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if again.Count != 64 {
		t.Fatalf("warm count = %d", again.Count)
	}
	if c.CacheMisses != 0 {
		t.Errorf("warm run had %d cache misses, want 0", c.CacheMisses)
	}
}

// engines under comparison: CLFTJ with various policies vs LFTJ vs naive.
func checkAllEngines(t *testing.T, q *cq.Query, db *relation.DB) {
	t.Helper()
	want, err := naive.Count(q, db)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}

	inst, err := leapfrog.Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatalf("leapfrog.Build: %v", err)
	}
	if got := leapfrog.Count(inst); got != want {
		t.Errorf("LFTJ count = %d, want %d", got, want)
	}

	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatalf("AutoPlan: %v", err)
	}
	policies := []Policy{
		{},               // cache everything
		{Disabled: true}, // pure LFTJ
		{Capacity: 3},    // tiny bounded cache, FIFO eviction
		{Capacity: 3, Eviction: EvictNone},
		{SupportThreshold: 1}, // cache from the second occurrence
		{SupportThreshold: 2, Capacity: 5},
	}
	for _, pol := range policies {
		if got := plan.Count(pol); got.Count != want {
			t.Errorf("CLFTJ count with %+v = %d, want %d (td=\n%s order=%v)",
				pol, got.Count, want, plan.TD(), plan.Order())
		}
	}

	// Evaluation must produce exactly the naive result set.
	wantTuples, err := naive.Eval(q, db)
	if err != nil {
		t.Fatalf("naive eval: %v", err)
	}
	for _, pol := range policies {
		got := evalSortedQVars(plan, pol, q)
		if len(got) != len(wantTuples) {
			t.Errorf("CLFTJ eval with %+v: %d tuples, want %d", pol, len(got), len(wantTuples))
			continue
		}
		for i := range got {
			if relation.CompareTuples(got[i], wantTuples[i]) != 0 {
				t.Errorf("CLFTJ eval with %+v: tuple %d = %v, want %v", pol, i, got[i], wantTuples[i])
				break
			}
		}
	}
}

// evalSortedQVars runs plan.Eval and reorders tuples into q.Vars() order,
// sorted, for comparison with the naive oracle.
func evalSortedQVars(plan *Plan, pol Policy, q *cq.Query) [][]int64 {
	order := plan.Order()
	qvars := q.Vars()
	pos := make(map[string]int, len(order))
	for d, v := range order {
		pos[v] = d
	}
	var out [][]int64
	plan.Eval(pol, func(mu []int64) bool {
		tup := make([]int64, len(qvars))
		for i, v := range qvars {
			tup[i] = mu[pos[v]]
		}
		out = append(out, tup)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return relation.CompareTuples(out[i], out[j]) < 0 })
	return out
}

func TestEnginesAgreeOnWorkloads(t *testing.T) {
	g := dataset.ErdosRenyi(30, 0.12, 7)
	db := g.DB(false)
	cases := []struct {
		name string
		q    *cq.Query
	}{
		{"3-path", queries.Path(3)},
		{"4-path", queries.Path(4)},
		{"5-path", queries.Path(5)},
		{"3-cycle", queries.Cycle(3)},
		{"4-cycle", queries.Cycle(4)},
		{"5-cycle", queries.Cycle(5)},
		{"lollipop-3-2", queries.Lollipop(3, 2)},
		{"4-clique", queries.Clique(4)},
		{"5-rand", queries.Random(5, 0.5, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkAllEngines(t, tc.q, db) })
	}
}

func TestEnginesAgreeOnSkewedData(t *testing.T) {
	g := dataset.PreferentialAttachment(60, 3, 11)
	db := g.DB(false)
	for _, q := range []*cq.Query{queries.Path(4), queries.Cycle(4), queries.Cycle(5)} {
		checkAllEngines(t, q, db)
	}
}

func TestIMDBQueriesAgree(t *testing.T) {
	db := dataset.IMDBCast(dataset.IMDBConfig{Persons: 40, Movies: 15, Appearances: 150, PersonSkew: 1.7, Seed: 5})
	for _, k := range []int{2, 3} {
		checkAllEngines(t, queries.IMDBCycle(k), db)
	}
}

// TestDisabledCacheMatchesLFTJAccesses verifies the §3.2 claim that with
// no caching the two algorithms coincide, and with it that LFTJ as the
// system runs it — the one-bag plan under Policy{Disabled: true}, on the
// driver every execution shares — is the scalar reference leapfrog.Count
// and leapfrog.Eval: the same count at every worker count and, on one
// worker, identical build and run counters and the same tuple sequence.
// A sharded eval must emit the sequential sequence too.
func TestDisabledCacheMatchesLFTJAccesses(t *testing.T) {
	db := dataset.TriadicPA(150, 3, 0.4, 2101).DB(false)
	off := Policy{Disabled: true}
	for _, sh := range []struct {
		name string
		q    *cq.Query
	}{
		{"3-path", queries.Path(3)},
		{"4-path", queries.Path(4)},
		{"5-path", queries.Path(5)},
		{"triangle", queries.Clique(3)},
		{"4-clique", queries.Clique(4)},
		{"4-cycle", queries.Cycle(4)},
		{"5-cycle", queries.Cycle(5)},
		{"lollipop-3-2", queries.Lollipop(3, 2)},
	} {
		q := sh.q
		var cRef, cPlan stats.Counters
		inst, err := leapfrog.Build(q, db, q.Vars(), &cRef)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(q, db, td.Singleton(len(q.Vars())), q.Vars(), &cPlan)
		if err != nil {
			t.Fatal(err)
		}
		if cPlan != cRef {
			t.Errorf("%s: build counters %+v, reference %+v", sh.name, cPlan, cRef)
		}
		want := leapfrog.Count(inst)
		if got := plan.Count(off).Count; got != want {
			t.Fatalf("%s: count %d, reference %d", sh.name, got, want)
		}
		if cPlan != cRef {
			t.Errorf("%s: counters %+v, reference %+v", sh.name, cPlan, cRef)
		}
		if cPlan.HashAccesses != 0 {
			t.Errorf("%s: disabled cache still probed: %d hash accesses", sh.name, cPlan.HashAccesses)
		}

		var ref [][]int64
		leapfrog.Eval(inst, func(mu []int64) bool {
			ref = append(ref, slices.Clone(mu))
			return true
		})
		seq := collectEval(t, plan, off)
		if !reflect.DeepEqual(seq, ref) {
			t.Errorf("%s: eval sequence differs from leapfrog.Eval's (%d vs %d tuples)", sh.name, len(seq), len(ref))
		}
		for _, workers := range []int{2, 4} {
			pol := off
			pol.Workers = workers
			if got := must(plan.CountParallelCtx(bg, pol)).Count; got != want {
				t.Errorf("%s workers=%d: count %d, reference %d", sh.name, workers, got, want)
			}
			if got := collectEval(t, plan, pol); !reflect.DeepEqual(got, seq) {
				t.Errorf("%s workers=%d: sharded eval sequence differs from the sequential one", sh.name, workers)
			}
		}
	}
}

// collectEval runs plan's evaluation under pol and returns the emitted
// tuples in emission order.
func collectEval(t *testing.T, plan *Plan, pol Policy) [][]int64 {
	t.Helper()
	var out [][]int64
	if _, err := plan.EvalParallelCtx(bg, pol, func(mu []int64) bool {
		out = append(out, slices.Clone(mu))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCachingReducesAccesses asserts the headline effect: on a skewed
// dataset, CLFTJ with caches performs fewer trie accesses than LFTJ.
func TestCachingReducesAccesses(t *testing.T) {
	g := dataset.PreferentialAttachment(150, 4, 3)
	db := g.DB(false)
	q := queries.Path(5)

	var cOn, cOff stats.Counters
	planOn, err := AutoPlan(q, db, AutoOptions{Counters: &cOn})
	if err != nil {
		t.Fatal(err)
	}
	resOn := planOn.Count(Policy{})

	planOff, err := NewPlan(q, db, planOn.TD(), planOn.Order(), &cOff)
	if err != nil {
		t.Fatal(err)
	}
	resOff := planOff.Count(Policy{Disabled: true})

	if resOn.Count != resOff.Count {
		t.Fatalf("counts differ: %d vs %d", resOn.Count, resOff.Count)
	}
	if cOn.TrieAccesses >= cOff.TrieAccesses {
		t.Errorf("caching did not reduce trie accesses: on=%d off=%d", cOn.TrieAccesses, cOff.TrieAccesses)
	}
	if cOn.CacheHits == 0 {
		t.Errorf("no cache hits on a skewed 5-path; td=\n%s", planOn.TD())
	}
}

func TestCacheCapacityRespected(t *testing.T) {
	g := dataset.PreferentialAttachment(120, 4, 13)
	db := g.DB(false)
	q := queries.Path(5)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unbounded := plan.Count(Policy{})
	if unbounded.CachedEntries == 0 {
		t.Skip("query cached nothing; capacity test not meaningful")
	}
	cap := unbounded.CachedEntries / 4
	if cap < 1 {
		cap = 1
	}
	for _, mode := range []EvictionMode{EvictFIFO, EvictNone} {
		res := plan.Count(Policy{Capacity: cap, Eviction: mode})
		if res.Count != unbounded.Count {
			t.Errorf("mode %v: count %d, want %d", mode, res.Count, unbounded.Count)
		}
		if res.CachedEntries > cap {
			t.Errorf("mode %v: %d entries cached, capacity %d", mode, res.CachedEntries, cap)
		}
	}
}
