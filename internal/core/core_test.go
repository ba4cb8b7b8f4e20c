package core

import (
	"context"
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

// TestDisabledCacheMatchesLFTJAccesses verifies the §3.2 claim that with
// no caching the two algorithms coincide, and with it that LFTJ as the
// system runs it — a one-bag plan under Policy{Disabled: true}, on the
// driver every execution shares — is the scalar reference leapfrog.Count
// and leapfrog.Eval. In every no-cache cell of a one-bag plan, bound
// afresh beside a leapfrog instance over the same order and index source,
// the plan charges the instance's build counters, counts what
// leapfrog.Count does with identical run counters and no hash access, and
// its enumeration is leapfrog.Eval's tuple sequence. At the cell's shard
// count it counts the same.
func TestDisabledCacheMatchesLFTJAccesses(t *testing.T) {
	t.Parallel()
	forEachCell(nil, func(cl cell) {
		if !cl.pol.Disabled || cl.plan.TD().N() != 1 {
			return
		}
		var cRef, cPlan stats.Counters
		inst := must(leapfrog.BuildWith(cl.q, cl.db, cl.plan.Order(), &cRef, cl.tries))
		plan := must(cl.plan.Rebind(cl.db, leapfrog.BuildOpts{Counters: &cPlan, Tries: cl.tries}))
		if cPlan != cRef {
			t.Fatalf("%s: build counters %+v, reference %+v", cl, cPlan, cRef)
		}
		cPlan.Reset() // a registry's probes are the builds'
		cRef.Reset()
		want := leapfrog.Count(inst)
		if got := plan.Count(cl.pol).Count; got != want {
			t.Fatalf("%s: count %d, reference %d", cl, got, want)
		}
		if cPlan != cRef {
			t.Fatalf("%s: counters %+v, reference %+v", cl, cPlan, cRef)
		}
		if cPlan.HashAccesses != 0 {
			t.Fatalf("%s: disabled cache still probed: %d hash accesses", cl, cPlan.HashAccesses)
		}
		ref := collectTuples(func(emit func([]int64) bool) { leapfrog.Eval(inst, emit) })
		sameTuples(t, cl.String()+": eval against leapfrog.Eval", cl.oracle(t).canon[cl.i], ref)
		pol := cl.pol
		pol.Workers = cl.shard
		if got := must(plan.CountParallelCtx(bg, pol)).Count; got != want {
			t.Fatalf("%s workers=%d: count %d, reference %d", cl, cl.shard, got, want)
		}
	})
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
