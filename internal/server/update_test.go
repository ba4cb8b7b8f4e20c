package server

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

func TestEngineUpdateBasics(t *testing.T) {
	db := relation.NewDB(relation.MustNew("E", 2, [][]int64{
		{1, 2}, {2, 3}, {3, 1},
	}))
	e := NewEngine(db, Config{Workers: 1})

	before, err := e.Do(Request{Query: "E(x,y), E(y,z), E(z,x)"})
	if err != nil {
		t.Fatal(err)
	}
	if before.Count != 3 {
		t.Fatalf("triangle count = %d, want 3 (cyclic rotations)", before.Count)
	}

	// Deleting one edge breaks the triangle; inserting a reverse edge
	// builds new 2-cycles.
	res, err := e.Update(UpdateRequest{
		Relation: "E",
		Inserts:  [][]int64{{2, 1}},
		Deletes:  [][]int64{{3, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || res.Version != 1 || res.Tuples != 3 {
		t.Fatalf("update result = %+v", res)
	}
	after, err := e.Do(Request{Query: "E(x,y), E(y,z), E(z,x)"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != 0 {
		t.Fatalf("post-delete triangle count = %d, want 0", after.Count)
	}
	two, err := e.Do(Request{Query: "E(x,y), E(y,x)"})
	if err != nil {
		t.Fatal(err)
	}
	if two.Count != 2 {
		t.Fatalf("2-cycle count = %d, want 2", two.Count)
	}

	// No-op deltas are reported but change nothing.
	res, err = e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied || res.Version != 1 {
		t.Fatalf("no-op update result = %+v", res)
	}

	// Unknown relations and bad arities are errors.
	if _, err := e.Update(UpdateRequest{Relation: "R"}); err == nil {
		t.Fatal("update of unknown relation accepted")
	}
	if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{1}}}); err == nil {
		t.Fatal("bad-arity insert accepted")
	}

	s := e.Stats()
	if s.Updates != 1 || s.Lifetime.DeltaApplies != 1 {
		t.Fatalf("stats updates=%d deltaApplies=%d, want 1/1", s.Updates, s.Lifetime.DeltaApplies)
	}
	if len(s.Relations) != 1 || s.Relations[0].Version != 1 {
		t.Fatalf("relation inventory = %+v, want E at version 1", s.Relations)
	}
}

// TestEngineWarmUpdatePatchesNotRebuilds is the steady-state acceptance
// test: a warm engine under small deltas answers every post-update
// query through copy-on-write patches — zero full trie rebuilds. That
// the patched answers are a fresh engine's is TestServiceLattice's
// (internal/cluster).
func TestEngineWarmUpdatePatchesNotRebuilds(t *testing.T) {
	db := testDB()
	// A huge compact fraction keeps every delta below the crossover.
	e := NewEngine(db, Config{Workers: 1, CompactFraction: 1e9})
	const query = "E(x,y), E(y,z), E(x,z)"
	if _, err := e.Do(Request{Query: query}); err != nil {
		t.Fatal(err) // warm the base indices
	}

	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 12; step++ {
		ins := [][]int64{{rng.Int63n(150), rng.Int63n(150)}, {rng.Int63n(150), rng.Int63n(150)}}
		var del [][]int64
		cur := e.DB()
		rel, _ := cur.Get("E")
		del = append(del, append([]int64(nil), rel.Tuple(rng.Intn(rel.Len()))...))
		if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: ins, Deletes: del}); err != nil {
			t.Fatal(err)
		}
		resp, err := e.Do(Request{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Counters.TrieBuilds != 0 {
			t.Fatalf("step %d: post-update query performed %d full trie rebuilds (patches=%d)",
				step, resp.Stats.Counters.TrieBuilds, resp.Stats.Counters.TriePatches)
		}
		if resp.Stats.Counters.TriePatches == 0 {
			t.Fatalf("step %d: post-update query derived no patched tries", step)
		}
	}
	s := e.Stats()
	if s.Registry.Patches == 0 || s.Registry.Builds == 0 {
		t.Fatalf("registry saw patches=%d builds=%d", s.Registry.Patches, s.Registry.Builds)
	}
	if s.LiveVersions != 2 { // current patched version + its base
		t.Fatalf("live versions = %d, want 2", s.LiveVersions)
	}
}

// TestEngineUpdateBackToBase walks a relation away from its base and
// back: the delta that undoes the pending ones installs the base itself,
// which is not a compaction — the registry builds and patches nothing
// (the base's indices, the constant-first one included, are resident),
// the plan shapes survive and re-bind, and the next delta patches against
// the same base.
func TestEngineUpdateBackToBase(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1})
	reads := []Request{{Query: "E(x,y), E(y,z), E(x,z)"}, {Query: "E(7,y), E(y,z)"}}
	var want []int64
	for _, req := range reads {
		resp, err := e.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, resp.Count)
	}
	base, _ := e.DB().Get("E")
	out := [][]int64{slices.Clone(base.Tuple(3)), slices.Clone(base.Tuple(40))}
	in := [][]int64{{9000, 9001}, {7, 9000}}
	read := func(what string, patched bool) {
		t.Helper()
		var patches int64
		for i, req := range reads {
			resp, err := e.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Stats.PlanCached || !resp.Stats.PlanRebound || resp.Stats.Counters.TrieBuilds != 0 {
				t.Fatalf("%s, %s: cached=%v rebound=%v builds=%d, want a re-bind with no build",
					what, req.Query, resp.Stats.PlanCached, resp.Stats.PlanRebound, resp.Stats.Counters.TrieBuilds)
			}
			if got := seqCount(t, e.DB(), req.Query); resp.Count != got || (!patched && resp.Count != want[i]) {
				t.Fatalf("%s, %s: count %d, fresh run %d, at the base %d", what, req.Query, resp.Count, got, want[i])
			}
			patches += resp.Stats.Counters.TriePatches
		}
		if (patches > 0) != patched {
			t.Fatalf("%s: the reads derived %d patched tries (want some: %v)", what, patches, patched)
		}
	}

	res, err := e.Update(UpdateRequest{Relation: "E", Deletes: out, Inserts: in})
	if err != nil || !res.Applied || res.Compacted || res.PendingDelta != 4 {
		t.Fatalf("away: %+v, %v", res, err)
	}
	read("away from the base", true)
	before := e.Stats()

	res, err = e.Update(UpdateRequest{Relation: "E", Deletes: in, Inserts: out})
	if err != nil || !res.Applied || res.Compacted || res.PendingDelta != 0 || res.Version != 2 {
		t.Fatalf("back: %+v, %v; want version 2, applied, no pending delta and no compaction", res, err)
	}
	if rel, _ := e.DB().Get("E"); rel != base {
		t.Fatal("the delta that undid the pending ones did not install the base relation itself")
	}
	read("back at the base", false)
	after := e.Stats()
	if after.Registry.Builds != before.Registry.Builds || after.Registry.Patches != before.Registry.Patches ||
		after.Plans.Misses != before.Plans.Misses {
		t.Fatalf("back at the base: registry %v -> %v, plans %v -> %v; want no build, no patch, no miss",
			before.Registry, after.Registry, before.Plans, after.Plans)
	}

	if res, err = e.Update(UpdateRequest{Relation: "E", Inserts: in[:1]}); err != nil || res.Compacted || res.PendingDelta != 1 {
		t.Fatalf("away again: %+v, %v", res, err)
	}
	read("away again", true)
}

// TestEngineCompactionCrossover pins the other side of the crossover: a
// delta larger than the compact fraction installs a compacted version
// whose indices are rebuilt in full, once, and later small deltas patch
// against the new base.
func TestEngineCompactionCrossover(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1}) // default fraction 0.25
	const query = "E(x,y), E(y,z), E(x,z)"
	if _, err := e.Do(Request{Query: query}); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.DB().Get("E")
	big := make([][]int64, 0, rel.Len()/2)
	for i := 0; i < rel.Len()/2; i++ {
		big = append(big, []int64{int64(1000 + i), int64(2000 + i)})
	}
	res, err := e.Update(UpdateRequest{Relation: "E", Inserts: big})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.PendingDelta != 0 {
		t.Fatalf("oversized delta did not compact: %+v", res)
	}
	resp, err := e.Do(Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Counters.TrieBuilds == 0 || resp.Stats.Counters.TriePatches != 0 {
		t.Fatalf("compacted version: builds=%d patches=%d, want full rebuilds only",
			resp.Stats.Counters.TrieBuilds, resp.Stats.Counters.TriePatches)
	}
	// Small follow-up delta: back to patching, against the new base.
	if _, err := e.Update(UpdateRequest{Relation: "E", Deletes: [][]int64{{1000, 2000}}}); err != nil {
		t.Fatal(err)
	}
	resp, err = e.Do(Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Counters.TrieBuilds != 0 || resp.Stats.Counters.TriePatches == 0 {
		t.Fatalf("post-compaction delta: builds=%d patches=%d, want patches only",
			resp.Stats.Counters.TrieBuilds, resp.Stats.Counters.TriePatches)
	}
}

// TestCompactionKeepsPlanShapes: a compaction unbinds the cached plans
// over the relation and keeps their shapes, as a patch does. The plan
// cache keeps its size, the next read of each shape is a hit that
// re-binds (plans.rebinds +1, plans.misses unchanged). That the answers
// are a fresh engine's is TestServiceLattice's (internal/cluster).
func TestCompactionKeepsPlanShapes(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1}) // default fraction 0.25
	shapes := []string{"E(x,y), E(y,z), E(x,z)", "E(a,b), E(b,c)", "E(3,y), E(y,z)"}
	for _, q := range shapes {
		if _, err := e.Do(Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	rel, _ := e.DB().Get("E")
	big := make([][]int64, 0, rel.Len()/2)
	for i := 0; i < rel.Len()/2; i++ {
		big = append(big, []int64{int64(i % 7), int64(100 + i)})
	}
	before := e.Stats().Plans
	if res, err := e.Update(UpdateRequest{Relation: "E", Inserts: big}); err != nil || !res.Compacted {
		t.Fatalf("oversized delta did not compact: %+v, %v", res, err)
	}
	if after := e.Stats().Plans; after.Size != before.Size {
		t.Fatalf("compaction changed the plan cache's size: %d → %d", before.Size, after.Size)
	}
	for i, q := range shapes {
		resp, err := e.Do(Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		s := e.Stats().Plans
		if !resp.Stats.PlanCached || !resp.Stats.PlanRebound || s.Rebinds != before.Rebinds+int64(i+1) || s.Misses != before.Misses {
			t.Fatalf("%s after the compaction: cached %v rebound %v, plans %v (before %v)",
				q, resp.Stats.PlanCached, resp.Stats.PlanRebound, s, before)
		}
	}
}

// TestEngineEpochPinsOldVersions white-boxes the reclamation protocol:
// a superseded version's registry indices survive exactly as long as a
// query that entered before the update is still in flight.
func TestEngineEpochPinsOldVersions(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1, CompactFraction: -1}) // compact always: no shared bases
	const query = "E(x,y), E(y,x)"
	if _, err := e.Do(Request{Query: query}); err != nil {
		t.Fatal(err) // resident indices for version 0
	}

	_, ep := e.snapshot() // a query in flight at version 0
	if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{7777, 7778}}}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Registry.Released != 0 {
		t.Fatalf("pinned version reclaimed early: %+v", s.Registry)
	}
	if s.LiveVersions != 2 { // new version + pinned old one
		t.Fatalf("live versions = %d, want 2 while pinned", s.LiveVersions)
	}

	e.finish(ep) // the old query drains
	s = e.Stats()
	if s.Registry.Released == 0 {
		t.Fatalf("drained version not reclaimed: %+v", s.Registry)
	}
	if s.LiveVersions != 1 {
		t.Fatalf("live versions = %d, want 1 after drain", s.LiveVersions)
	}
}
