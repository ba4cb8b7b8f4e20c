package server

import (
	"runtime"
	"strings"
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

// mixedRequests is a mixed workload: distinct shapes, modes and
// per-query cache policies over one engine.
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

// TestEngineEval pins the shape of a capped eval: the limit's tuples,
// marked truncated, each aligned with the reported order. The answers
// themselves are TestServiceLattice's (internal/cluster).
func TestEngineEval(t *testing.T) {
	e := NewEngine(testDB(), Config{})
	resp, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)", Mode: "eval", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tuples) != 3 || !resp.Truncated || len(resp.Order) != 3 {
		t.Fatalf("eval returned %d tuples (truncated=%v) under order %v, want 3 truncated under 3 variables", len(resp.Tuples), resp.Truncated, resp.Order)
	}
	for _, tup := range resp.Tuples {
		if len(tup) != len(resp.Order) {
			t.Fatalf("tuple %v does not align with order %v", tup, resp.Order)
		}
	}
}

// TestEngineAggregate: the count semiring is the count entry — same
// stats block, resident cache entries included — with the mode still
// "aggregate". The aggregates' values are TestServiceLattice's.
func TestEngineAggregate(t *testing.T) {
	e := NewEngine(testDB(), Config{})
	resp, err := e.Do(Request{Query: "E(x,y), E(y,z)", Mode: "aggregate"})
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := e.Do(Request{Query: "E(x,y), E(y,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "aggregate" || resp.Stats.CachedEntries == 0 || resp.Stats.CachedEntries != cnt.Stats.CachedEntries {
		t.Fatalf("aggregate/count: mode %q, cached entries %d; count mode reports %d",
			resp.Mode, resp.Stats.CachedEntries, cnt.Stats.CachedEntries)
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
		{Query: "E(x,y)", Workers: -1},
	} {
		if _, err := e.Do(req); err == nil {
			t.Errorf("request %+v: want error", req)
		}
	}
	if got := e.Stats().Queries; got != 0 {
		t.Fatalf("failed requests counted as %d completed queries", got)
	}
	// A negative engine default is refused where a request takes it, not
	// read as one worker per core.
	neg := NewEngine(testDB(), Config{Workers: -1})
	if _, err := neg.Do(Request{Query: "E(x,y)"}); err == nil {
		t.Error("Config{Workers: -1}: a request taking the default ran")
	}
	if got := neg.Stats().Queries; got != 0 {
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
