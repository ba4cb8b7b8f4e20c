package server

import (
	"context"
	"testing"
)

// TestOrdererPlanCacheKey pins the plan-affecting contract: the cache
// keys on the resolved orderer, so the default and an explicit "greedy"
// (two spellings of one strategy) share one entry, while "cost" and
// "adaptive" compile their own. A prepared statement that names no
// orderer resolves the same way: its compile hits the greedy entry.
func TestOrdererPlanCacheKey(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1})
	const query = "E(a,b), E(b,c), E(c,d)"
	want, _ := e.Do(Request{Query: query})

	run := func(ord string) {
		t.Helper()
		resp, err := e.Do(Request{Query: query, Orderer: ord})
		if err != nil {
			t.Fatalf("orderer %q: %v", ord, err)
		}
		if resp.Count != want.Count {
			t.Fatalf("orderer %q count = %d, want %d", ord, resp.Count, want.Count)
		}
	}
	expect := func(step string, misses, hits int64, size int) {
		t.Helper()
		if s := e.Stats().Plans; s.Misses != misses || s.Hits != hits || s.Size != size {
			t.Fatalf("plan cache after %s: %v (want %d misses, %d hits, size %d)", step, s, misses, hits, size)
		}
	}
	run("greedy")
	run("cost")
	expect("default, greedy, cost", 2, 1, 2)

	run("adaptive")
	expect("adaptive", 3, 1, 3)

	s, err := e.Prepare(Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	expect("prepare", 3, 2, 3)
	if _, err := s.Do(context.Background(), Request{}); err != nil {
		t.Fatal(err)
	}
	expect("prepared execution", 3, 3, 3)
	if _, err := s.Do(context.Background(), Request{Orderer: "cost"}); err != nil {
		t.Fatal(err)
	}
	expect("prepared cost execution", 3, 4, 3)

	if _, err := e.Do(Request{Query: query, Orderer: "nosuch"}); err == nil {
		t.Fatal("unknown orderer accepted")
	}
}

// TestGreedyOrdererMatchesCost checks result equivalence across the
// strategies on the mixed workload: plan shapes may differ, counts may
// not.
func TestGreedyOrdererMatchesCost(t *testing.T) {
	db := testDB()
	e := NewEngine(db, Config{Workers: 2, Orderer: "greedy"})
	for _, req := range mixedRequests() {
		if req.Mode != "" && req.Mode != "count" {
			continue
		}
		resp, err := e.Do(req)
		if err != nil {
			t.Fatalf("%q: %v", req.Query, err)
		}
		if want := seqCount(t, db, req.Query); resp.Count != want {
			t.Fatalf("%q greedy count = %d, want %d", req.Query, resp.Count, want)
		}
	}
}

// TestAdaptiveReplanOnDivergence is the forced-divergence workload of
// the acceptance criteria: under the adaptive orderer with a hair
// trigger, alternating the (execution-only, so cache-key-invariant)
// cache policy swings the observed trie traffic of one cached plan far
// beyond the divergence threshold, which must trigger a re-plan —
// observable as plans.replans in GET /stats — while every answer stays
// correct.
func TestAdaptiveReplanOnDivergence(t *testing.T) {
	db := testDB()
	e := NewEngine(db, Config{
		Workers:        1,
		Orderer:        "adaptive",
		AdaptThreshold: 0.01,
		AdaptRuns:      1,
	})
	const query = "E(a,b), E(b,c), E(c,d), E(d,e)"
	want := seqCount(t, db, query)

	// Miss + compile, then a hit that sets the baseline.
	for i := 0; i < 2; i++ {
		resp, err := e.Do(Request{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Count != want {
			t.Fatalf("run %d count = %d, want %d", i, resp.Count, want)
		}
	}
	if s := e.Stats().Plans; s.Replans != 0 {
		t.Fatalf("replanned before any divergence: %v", s)
	}

	// NoCache degenerates CLFTJ to LFTJ: same plan-cache key, very
	// different trie traffic — the forced divergence.
	resp, err := e.Do(Request{Query: query, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != want {
		t.Fatalf("divergent run count = %d, want %d", resp.Count, want)
	}
	s := e.Stats().Plans
	if s.Replans < 1 {
		t.Fatalf("forced divergence triggered no re-plan: %v", s)
	}

	// The swapped plan keeps serving correct answers from the cache.
	resp, err = e.Do(Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != want {
		t.Fatalf("post-replan count = %d, want %d", resp.Count, want)
	}
	if !resp.Stats.PlanCached {
		t.Fatal("post-replan execution missed the cache (swap dropped the entry?)")
	}
}

// TestObserveAccumulatesDemotes unit-tests the feedback record: the
// first observation baselines, conforming observations reset the
// divergence streak, divergent ones accumulate empty-level variables
// (deduplicated) until the run threshold trips, and the re-plan budget
// caps out at adaptMaxReplans.
func TestObserveAccumulatesDemotes(t *testing.T) {
	pc := newPlanCache(4)
	key := planKey{text: "q", ord: "adaptive"}
	vec := []uint64{0}
	pc.put(key, cachedPlan(t), []string{"E"}, vec, nil)

	if _, replan := pc.observe(key, 100, nil, 0.5, 2); replan {
		t.Fatal("baselining observation replanned")
	}
	// 10% off: conforming under a 0.5 threshold.
	if _, replan := pc.observe(key, 110, []string{"z"}, 0.5, 2); replan {
		t.Fatal("conforming observation replanned")
	}
	// Divergent once (run 1 of 2): accumulates but does not trip.
	if _, replan := pc.observe(key, 300, []string{"z"}, 0.5, 2); replan {
		t.Fatal("first divergent observation replanned (runs=2)")
	}
	// Conforming again: the streak must reset.
	if _, replan := pc.observe(key, 100, nil, 0.5, 2); replan {
		t.Fatal("streak survived a conforming observation")
	}
	// Two consecutive divergent runs trip, with the deduplicated set.
	pc.observe(key, 300, []string{"z"}, 0.5, 2)
	demote, replan := pc.observe(key, 300, []string{"z", "y"}, 0.5, 2)
	if !replan {
		t.Fatal("two consecutive divergent observations did not replan")
	}
	if len(demote) != 2 || demote[0] != "z" || demote[1] != "y" {
		t.Fatalf("demote = %v, want [z y]", demote)
	}

	// replace re-baselines and counts.
	pc.replace(key, cachedPlan(t), vec, nil)
	if s := pc.stats(); s.Replans != 1 {
		t.Fatalf("Replans = %d, want 1", s.Replans)
	}
	if _, replan := pc.observe(key, 500, nil, 0.5, 2); replan {
		t.Fatal("post-swap observation replanned instead of re-baselining")
	}

	// The budget: exhaust adaptMaxReplans, then no more signals.
	for i := pc.entries[key].adapt.replans; i < adaptMaxReplans; i++ {
		pc.observe(key, 2000, nil, 0.5, 1)
		pc.observe(key, 2000, nil, 0.5, 1) // baseline moved by replace only; keep diverging
	}
	if _, replan := pc.observe(key, 9000, nil, 0.5, 1); replan {
		t.Fatal("re-plan budget not enforced")
	}

	// Unknown keys are ignored.
	if _, replan := pc.observe(planKey{text: "other"}, 9000, nil, 0.5, 1); replan {
		t.Fatal("observation on a missing entry replanned")
	}
}

// TestAdaptiveCountMatchesAcrossReplans runs the divergence workload on
// real data and checks the invariant that matters to clients: whatever
// the adaptive loop does to the cached plan, every answer equals the
// fresh sequential count.
func TestAdaptiveCountMatchesAcrossReplans(t *testing.T) {
	db := testDB()
	e := NewEngine(db, Config{
		Workers:        1,
		Orderer:        "adaptive",
		AdaptThreshold: 0.05,
		AdaptRuns:      1,
	})
	const query = "E(a,b), E(b,c), E(c,d)"
	want := seqCount(t, db, query)
	for i := 0; i < 12; i++ {
		resp, err := e.Do(Request{Query: query, NoCache: i%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Count != want {
			t.Fatalf("run %d count = %d, want %d", i, resp.Count, want)
		}
	}
	if s := e.Stats().Plans; s.Replans == 0 {
		t.Fatalf("alternating cache policy never diverged: %v", s)
	}
}

// TestAdaptiveSurvivesUpdates pins what keeping shapes across updates
// gives the adaptive loop, and what it must not take away. Under steady
// update traffic an entry now lives long enough to collect AdaptRuns
// consecutive divergent observations (when every update dropped the
// entry, the streak died with it and no such workload ever re-planned);
// and because the entry is long-lived, its re-plan budget must come back
// when a compaction drops the shape, or adaptation would switch itself
// off for good after adaptMaxReplans.
func TestAdaptiveSurvivesUpdates(t *testing.T) {
	e := NewEngine(testDB(), Config{
		Workers:         1,
		Orderer:         "adaptive",
		AdaptThreshold:  0.05,
		AdaptRuns:       3,
		CompactFraction: 0.9,
	})
	const query = "E(a,b), E(b,c), E(c,d), E(d,e)"
	do := func(req Request) *Response {
		t.Helper()
		req.Query = query
		resp, err := e.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	next := int64(50000)
	update := func(tuples int) *UpdateResult {
		t.Helper()
		var ins [][]int64
		for i := 0; i < tuples; i++ {
			ins = append(ins, []int64{next, next + 1})
			next += 2
		}
		res, err := e.Update(UpdateRequest{Relation: "E", Inserts: ins})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// divergeUnderUpdates is AdaptRuns rounds of one update, the read
	// that re-binds, and one observed read whose traffic (NoCache: LFTJ
	// instead of CLFTJ on the same key) is far off the baseline.
	divergeUnderUpdates := func() {
		t.Helper()
		do(Request{}) // baseline right after a (re-)plan, conforming otherwise
		for i := 0; i < 3; i++ {
			if update(1).Compacted {
				t.Fatal("a one-tuple update compacted")
			}
			if r := do(Request{NoCache: true}); !r.Stats.PlanRebound {
				t.Fatal("read after update did not re-bind")
			}
			do(Request{NoCache: true})
		}
	}

	do(Request{}) // compile
	for want := int64(1); want <= adaptMaxReplans; want++ {
		divergeUnderUpdates()
		if s := e.Stats().Plans; s.Replans != want || s.Misses != 1 {
			t.Fatalf("after %d divergent streaks under updates: %v (want %d replans, still 1 miss)", want, s, want)
		}
	}
	divergeUnderUpdates()
	if s := e.Stats().Plans; s.Replans != adaptMaxReplans {
		t.Fatalf("re-plan budget not enforced between compactions: %v", s)
	}

	if !update(1000).Compacted {
		t.Fatal("a delta larger than the relation did not compact")
	}
	if r := do(Request{}); r.Stats.PlanCached {
		t.Fatal("shape survived its relation's compaction")
	}
	divergeUnderUpdates()
	if s := e.Stats().Plans; s.Replans != adaptMaxReplans+1 {
		t.Fatalf("re-plan budget did not reset with the shape at compaction: %v", s)
	}
	if got, want := do(Request{}).Count, seqCount(t, e.DB(), query); got != want {
		t.Fatalf("count after the storm = %d, fresh sequential run says %d", got, want)
	}
}
