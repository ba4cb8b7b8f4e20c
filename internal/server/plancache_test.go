package server

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/leapfrog"
	"repro/internal/relation"
)

// cachedPlan compiles a small plan for tests that drive the cache
// directly: it has a real shape to keep and a binding to lose.
func cachedPlan(t *testing.T) *core.Plan {
	t.Helper()
	db := relation.NewDB(relation.MustNew("E", 2, [][]int64{{1, 2}, {2, 3}, {1, 3}}))
	p, err := core.AutoPlan(cq.MustParse("E(x,y), E(y,z)"), db, core.AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOrdererPlanCacheKey pins the plan-cache key — the canonical query
// text alone: a default request and a prepared statement over the same
// text compile into and execute from one entry.
func TestOrdererPlanCacheKey(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1})
	const query = "E(a,b), E(b,c), E(c,d)"
	expect := func(step string, misses, hits int64, size int) {
		t.Helper()
		if s := e.Stats().Plans; s.Misses != misses || s.Hits != hits || s.Size != size {
			t.Fatalf("plan cache after %s: %v (want %d misses, %d hits, size %d)", step, s, misses, hits, size)
		}
	}
	if _, err := e.Do(Request{Query: query}); err != nil {
		t.Fatal(err)
	}
	expect("default request", 1, 0, 1)
	s, err := e.Prepare(Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	expect("prepare", 1, 1, 1)
	if _, err := s.Do(context.Background(), Request{}); err != nil {
		t.Fatal(err)
	}
	expect("prepared execution", 1, 2, 1)
}

// TestGreedyOrdererMatchesCost checks result equivalence between the
// serving planner and the figures' §4 planner on the mixed workload:
// plan shapes may differ, counts may not.
func TestGreedyOrdererMatchesCost(t *testing.T) {
	db := testDB()
	e := NewEngine(db, Config{Workers: 2})
	for _, req := range mixedRequests() {
		if req.Mode != "" && req.Mode != "count" {
			continue
		}
		resp, err := e.Do(req)
		if err != nil {
			t.Fatalf("%q: %v", req.Query, err)
		}
		q := cq.MustParse(req.Query)
		tree, order, err := core.CostSelect(q, db)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.NewPlan(q, db, tree, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := plan.Count(core.Policy{}).Count; resp.Count != want {
			t.Fatalf("%q served count = %d, cost-model plan counts %d", req.Query, resp.Count, want)
		}
	}
}

// TestPlanCachePerEntryInvalidation pins the precision contract of the
// registry evict hook: dropping one (relation, column order) registry
// entry unbinds exactly the plans embedding that entry — plans over the
// same relation's other, still-resident orders stay bound, as do plans
// embedding no shared index at all — and no shape is lost.
func TestPlanCachePerEntryInvalidation(t *testing.T) {
	pc := newPlanCache(8)
	relE := relation.MustNew("E", 2, [][]int64{{1, 2}})
	relR := relation.MustNew("R", 2, [][]int64{{2, 3}})
	permID, permSwap := "\x00\x01", "\x01\x00"

	keyA := "a"
	keyB := "b"
	keyC := "c"
	keyD := "d"
	vec := []uint64{0}
	pc.put(keyA, cachedPlan(t), []string{"E"}, vec, []leapfrog.SourceEntry{{Rel: relE, Perm: permID}})
	pc.put(keyB, cachedPlan(t), []string{"E"}, vec, []leapfrog.SourceEntry{{Rel: relE, Perm: permSwap}})
	pc.put(keyC, cachedPlan(t), []string{"E"}, vec, nil) // private (constant-specialized) tries only
	pc.put(keyD, cachedPlan(t), []string{"R"}, vec, []leapfrog.SourceEntry{{Rel: relR, Perm: permID}})

	pc.invalidateEmbedding(relE, permID)

	if p, bound := pc.get(keyA, vec); p == nil || bound || p.Instance() != nil {
		t.Fatalf("plan embedding the evicted (E, id) entry: shape kept %v, still bound %v", p != nil, bound)
	}
	for _, tc := range []struct {
		key  string
		what string
	}{
		{keyB, "plan over E's other, still-resident order"},
		{keyC, "plan with no shared index"},
		{keyD, "plan over an unrelated relation"},
	} {
		if _, bound := pc.get(tc.key, vec); !bound {
			t.Fatalf("%s was unbound by an unrelated eviction", tc.what)
		}
	}
	if s := pc.stats(); s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want exactly 1", s.Invalidations)
	}

	// Relation identity, not name, scopes the match: evicting a *newer*
	// version's entry must not unbind plans bound to the old one.
	relE2 := relation.MustNew("E", 2, [][]int64{{1, 2}, {3, 4}})
	pc.invalidateEmbedding(relE2, permSwap)
	if _, bound := pc.get(keyB, vec); !bound {
		t.Fatal("eviction of another version's entry unbound an unrelated plan")
	}
}

// TestPlanCacheBindingVersions pins the rule that keeps snapshots apart
// inside one entry: a reader gets the resident binding only at exactly
// its own version vector, an update's sweep leaves a floor no older
// binding is stored under, a newer binding displaces an older one, and
// a compaction unbinds the entry like any update, keeping the shape.
func TestPlanCacheBindingVersions(t *testing.T) {
	pc := newPlanCache(4)
	key := "q"
	shape := cachedPlan(t)
	names := []string{"E", "R"}
	pc.put(key, shape, names, []uint64{4, 1}, nil)

	if p, bound := pc.get(key, []uint64{5, 1}); p == nil || bound || p.Instance() != nil {
		t.Fatal("a reader at another snapshot was handed the resident binding")
	}
	// A newer reader's binding replaces the resident one.
	pc.rebound(key, shape, []uint64{5, 1}, nil)
	if _, bound := pc.get(key, []uint64{5, 1}); !bound {
		t.Fatal("newer binding was not stored")
	}
	// A superseded reader's never does.
	pc.rebound(key, shape, []uint64{4, 1}, nil)
	if _, bound := pc.get(key, []uint64{4, 1}); bound {
		t.Fatal("binding of a superseded snapshot displaced a newer one")
	}

	// Update E to version 6: unbound, and 5 is now superseded too.
	pc.invalidateTouching("E", 6)
	pc.rebound(key, shape, []uint64{5, 1}, nil)
	if p, bound := pc.get(key, []uint64{5, 1}); p == nil || bound {
		t.Fatal("a binding older than the update that unbound the entry was stored")
	}
	// A plan of another compilation is not this entry's binding.
	pc.rebound(key, cachedPlan(t), []uint64{6, 1}, nil)
	if _, bound := pc.get(key, []uint64{6, 1}); bound {
		t.Fatal("binding of a different shape was stored")
	}
	pc.rebound(key, shape, []uint64{6, 1}, nil)
	if _, bound := pc.get(key, []uint64{6, 1}); !bound {
		t.Fatal("binding at the update's own version was refused")
	}
	// Updates to relations the plan does not touch leave it alone.
	pc.invalidateTouching("S", 9)
	if _, bound := pc.get(key, []uint64{6, 1}); !bound {
		t.Fatal("update to an untouched relation unbound the entry")
	}

	pc.invalidateTouching("R", 2)
	if p, bound := pc.get(key, []uint64{6, 2}); p == nil || bound || !p.SameShape(shape) {
		t.Fatal("an update to R did not leave the entry unbound with its shape")
	}
	if s := pc.stats(); s.Rebinds != 5 || s.Invalidations != 2 || s.Misses != 0 || s.Size != 1 {
		t.Fatalf("stats = %+v, want 5 rebinds, 2 invalidations, no miss, 1 entry", s)
	}
}

// TestEngineEvictionKeepsOtherOrdersWarm drives the same contract
// through a live engine: with a byte budget that forces the registry to
// evict E's index when R's is built, the cached plan over R must stay
// bound afterwards while only the plan pinning the evicted index
// re-binds.
func TestEngineEvictionKeepsOtherOrdersWarm(t *testing.T) {
	db := relation.NewDB()
	g := testDB()
	e1, err := g.Get("E")
	if err != nil {
		t.Fatal(err)
	}
	db.Put(e1)
	db.Put(e1.Rename("R"))
	// Budget: one resident index at a time.
	e := NewEngine(db, Config{Workers: 1, TrieBudget: 1})
	if _, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"}); err != nil {
		t.Fatal(err)
	}
	// R's index build evicts E's; E's plan must unbind, R's must stay.
	if _, err := e.Do(Request{Query: "R(x,y), R(y,z), R(x,z)"}); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(Request{Query: "R(x,y), R(y,z), R(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Stats.PlanCached || resp.Stats.PlanRebound {
		t.Fatal("R's binding did not survive the eviction that only touched E")
	}
}
