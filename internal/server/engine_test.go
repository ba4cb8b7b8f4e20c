package server

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/relation"
)

// testDB is a small skewed graph: large enough that joins do real work
// and parallel paths engage, small enough for -race.
func testDB() *relation.DB {
	return dataset.TriadicPA(150, 3, 0.4, 4242).DB(false)
}

// seqCount runs q fresh and sequentially with no registry — the ground
// truth the engine's answers must be bit-identical to.
func seqCount(t *testing.T, db *relation.DB, query string) int64 {
	t.Helper()
	q, err := cq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.AutoPlan(q, db, core.AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan.Count(core.Policy{}).Count
}

// mixedRequests is the workload of the concurrency tests: distinct
// shapes, modes and per-query cache policies over one engine.
func mixedRequests() []Request {
	return []Request{
		{Query: "E(x,y), E(y,z), E(x,z)"},                                         // triangle
		{Query: "E(x,y), E(y,z), E(x,z)", Workers: 1},                             // sequential
		{Query: "E(a,b), E(b,c), E(c,d)", CacheCapacity: 64},                      // 4-path, bounded
		{Query: "E(a,b), E(b,c), E(c,d), E(d,a)", CacheEviction: "lru"},           // 4-cycle
		{Query: "E(a,b), E(b,c), E(c,d), E(d,a)", NoCache: true},                  // 4-cycle, LFTJ
		{Query: "E(x,y), E(y,z), E(x,z)", Mode: "eval", Limit: 7},                 // eval sample
		{Query: "E(a,b), E(b,c), E(c,d)", Mode: "aggregate"},                      // count semiring
		{Query: "E(x,y), E(y,z), E(x,z)", Mode: "aggregate", Semiring: "min"},     // tropical
		{Query: "E(a,b), E(b,c), E(c,a), E(a,d)", CacheSupport: 1},                // tailed triangle
		{Query: "E(a,b), E(b,c), E(c,d), E(d,e)", Workers: 2, CacheCapacity: 128}, // 5-path
	}
}

// TestEngineConcurrentMixedQueries is the acceptance test: one engine,
// loaded once, answers >= 100 concurrent mixed count/eval/aggregate
// queries with counts bit-identical to fresh sequential runs. Run under
// -race in CI.
func TestEngineConcurrentMixedQueries(t *testing.T) {
	db := testDB()
	e := NewEngine(db, Config{Workers: 2})
	reqs := mixedRequests()

	// Ground truth, computed before the engine warms anything.
	want := make([]int64, len(reqs))
	for i, r := range reqs {
		want[i] = seqCount(t, db, r.Query)
	}

	const n = 120 // concurrent queries, >= 100 per the acceptance bar
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := reqs[i%len(reqs)]
			resp, err := e.Do(req)
			if err != nil {
				errs <- fmt.Errorf("query %d (%s): %w", i, req.Query, err)
				return
			}
			if resp.Mode != "aggregate" || req.Semiring == "" || req.Semiring == "count" {
				if resp.Count != want[i%len(reqs)] {
					errs <- fmt.Errorf("query %d (%s): count %d, sequential %d",
						i, req.Query, resp.Count, want[i%len(reqs)])
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := e.Stats()
	if s.Queries != n {
		t.Fatalf("engine counted %d queries, want %d", s.Queries, n)
	}
	if s.Registry.Hits == 0 {
		t.Fatal("registry recorded no hits across 120 queries")
	}
}

// TestEngineRepeatedQueryZeroBuilds is the amortization acceptance test:
// the second run of a repeated query performs zero trie builds.
func TestEngineRepeatedQueryZeroBuilds(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1})
	req := Request{Query: "E(x,y), E(y,z), E(x,z)"}

	first, err := e.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Counters.TrieBuilds == 0 {
		t.Fatal("cold run reported zero trie builds")
	}
	second, err := e.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Stats.Counters.TrieBuilds; got != 0 {
		t.Fatalf("warm run performed %d trie builds, want 0", got)
	}
	if second.Count != first.Count {
		t.Fatalf("warm count %d != cold count %d", second.Count, first.Count)
	}
	// Another shape over the same relation under the same orders also
	// rides the warm registry.
	third, err := e.Do(Request{Query: "E(a,b), E(b,c), E(a,c)"})
	if err != nil {
		t.Fatal(err)
	}
	if got := third.Stats.Counters.TrieBuilds; got != 0 {
		t.Fatalf("renamed query performed %d trie builds, want 0", got)
	}
}

// TestEngineConstantQuerySteadyBuilds pins the accounting of a query
// with a constant, with plan caching disabled so every request
// recompiles: the constant atom's index is the relation's own under the
// column order that puts the constant first — a registry entry like any
// other, entered under the constant — so warm repeats settle at zero
// builds, not one private trie per compile nor one per candidate order.
func TestEngineConstantQuerySteadyBuilds(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1, PlanCache: -1})
	req := Request{Query: "E(x,y), E(y,z), E(z, 0)"}
	if _, err := e.Do(req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		warm, err := e.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := warm.Stats.Counters.TrieBuilds; got != 0 {
			t.Fatalf("warm constant-atom run %d performed %d trie builds, want 0", i, got)
		}
	}
}

func TestEngineEval(t *testing.T) {
	db := testDB()
	e := NewEngine(db, Config{})
	total := seqCount(t, db, "E(x,y), E(y,z), E(x,z)")
	resp, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)", Mode: "eval", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != total {
		t.Fatalf("eval count %d, want %d", resp.Count, total)
	}
	if len(resp.Tuples) != 3 || !resp.Truncated {
		t.Fatalf("eval returned %d tuples (truncated=%v), want 3 truncated", len(resp.Tuples), resp.Truncated)
	}
	if len(resp.Order) != 3 {
		t.Fatalf("order %v, want 3 variables", resp.Order)
	}
	for _, tup := range resp.Tuples {
		if len(tup) != len(resp.Order) {
			t.Fatalf("tuple %v does not align with order %v", tup, resp.Order)
		}
	}
}

func TestEngineAggregate(t *testing.T) {
	db := testDB()
	e := NewEngine(db, Config{})
	total := seqCount(t, db, "E(x,y), E(y,z)")

	resp, err := e.Do(Request{Query: "E(x,y), E(y,z)", Mode: "aggregate"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != total {
		t.Fatalf("aggregate count %d, want %d", resp.Count, total)
	}
	// The count semiring is the count entry: same answer, same stats
	// block (resident cache entries included), mode still "aggregate".
	cnt, err := e.Do(Request{Query: "E(x,y), E(y,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "aggregate" || resp.Stats.CachedEntries == 0 || resp.Stats.CachedEntries != cnt.Stats.CachedEntries {
		t.Fatalf("aggregate/count: mode %q, cached entries %d; count mode reports %d",
			resp.Mode, resp.Stats.CachedEntries, cnt.Stats.CachedEntries)
	}

	// min over tuples of the sum of bound values must match a direct
	// scan of the evaluated result.
	resp, err = e.Do(Request{Query: "E(x,y), E(y,z)", Mode: "aggregate", Semiring: "min", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.Do(Request{Query: "E(x,y), E(y,z)", Mode: "eval", Limit: int(total) + 1})
	if err != nil {
		t.Fatal(err)
	}
	best := float64(1e300)
	for _, tup := range ev.Tuples {
		s := 0.0
		for _, v := range tup {
			s += float64(v)
		}
		if s < best {
			best = s
		}
	}
	if resp.Value != best {
		t.Fatalf("tropical aggregate %v, scan says %v", resp.Value, best)
	}
}

func TestEngineTrieBudgetEvicts(t *testing.T) {
	// A 1-byte budget admits at most one resident index at a time (a
	// single oversized entry is kept — the engine cannot answer without
	// it); the second query needs E under the opposite column order, so
	// its insertion must evict the first.
	e := NewEngine(testDB(), Config{Workers: 1, TrieBudget: 1})
	if _, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(Request{Query: "E(x,y), E(y,x)"}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().Registry
	if s.Evictions == 0 {
		t.Fatalf("budget of 1 byte evicted nothing: %+v", s)
	}
	if s.Entries != 1 {
		t.Fatalf("entries = %d, want 1 under a 1-byte budget", s.Entries)
	}
	if s.Budget != 1 {
		t.Fatalf("budget = %d, want 1", s.Budget)
	}
}

func TestEngineErrors(t *testing.T) {
	e := NewEngine(testDB(), Config{})
	for _, req := range []Request{
		{Query: "not a query"},
		{Query: "R(x,y)"}, // unknown relation
		{Query: "E(x,y)", Mode: "explain"},
		{Query: "E(x,y)", Mode: "stream"}, // transport-level; StreamCtx/HTTP only
		{Query: "E(x,y)", Mode: "aggregate", Semiring: "max"},
		{Query: "E(x,y)", CacheEviction: "random"},
	} {
		if _, err := e.Do(req); err == nil {
			t.Errorf("request %+v: want error", req)
		}
	}
	if got := e.Stats().Queries; got != 0 {
		t.Fatalf("failed requests counted as %d completed queries", got)
	}
}

// TestPolicyOfClampsWorkers pins the bound on a request's workers: the
// engine's own count or the CPU count, whichever is larger. No query
// runs at the requested value.
func TestPolicyOfClampsWorkers(t *testing.T) {
	cpus := runtime.NumCPU()
	for _, tc := range []struct{ cfg, req, want int }{
		{0, 1 << 30, cpus},
		{cpus + 3, 1 << 30, cpus + 3},
		{0, 2, min(2, cpus)},
		{0, 0, 0},
		{5, 0, 5},
		{0, 1, 1},
	} {
		e := &Engine{cfg: Config{Workers: tc.cfg}}
		pol, err := e.policyOf(Request{Workers: tc.req})
		if err != nil {
			t.Fatal(err)
		}
		if pol.Workers != tc.want {
			t.Errorf("Config.Workers %d, request %d: policy Workers %d, want %d", tc.cfg, tc.req, pol.Workers, tc.want)
		}
	}
}

func TestEngineStatsInventory(t *testing.T) {
	e := NewEngine(testDB(), Config{})
	s := e.Stats()
	if len(s.Relations) != 1 || s.Relations[0].Name != "E" || s.Relations[0].Arity != 2 {
		t.Fatalf("relations = %+v, want one binary E", s.Relations)
	}
	if s.Relations[0].Tuples == 0 {
		t.Fatal("relation E reported empty")
	}
	if _, err := e.Do(Request{Query: "E(x,y), E(y,x)"}); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.Queries != 1 || s.Lifetime.Total() == 0 {
		t.Fatalf("lifetime stats not merged: %+v", s)
	}
	if !strings.Contains(s.Registry.String(), "entries=") {
		t.Fatalf("registry stats string: %q", s.Registry.String())
	}
}
