package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/relation"
)

// TestPlanCacheHit pins the tentpole's hot path: the first execution of
// a query compiles and caches, every repeat — including formatting
// variants of the same text — skips compilation entirely.
func TestPlanCacheHit(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1})

	first, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PlanCached {
		t.Fatal("cold run reported a plan-cache hit")
	}
	second, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.PlanCached {
		t.Fatal("warm repeat missed the plan cache")
	}
	if second.Count != first.Count {
		t.Fatalf("cached plan count %d != cold count %d", second.Count, first.Count)
	}
	if second.Stats.Counters.TrieBuilds != 0 {
		t.Fatalf("cached-plan run built %d tries", second.Stats.Counters.TrieBuilds)
	}

	// Formatting variants canonicalize to one cache entry.
	third, err := e.Do(Request{Query: "E(x , y),E(y,z),   E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Stats.PlanCached {
		t.Fatal("whitespace variant of a warm query missed the plan cache")
	}

	s := e.Stats()
	if s.Plans.Hits != 2 || s.Plans.Misses != 1 {
		t.Fatalf("plan cache stats = %+v, want 2 hits / 1 miss", s.Plans)
	}
	if s.Plans.Size != 1 || s.Plans.Capacity != DefaultPlanCacheSize {
		t.Fatalf("plan cache residency = %+v", s.Plans)
	}
}

// TestPlanCacheDisabled pins the control arm: with a negative capacity
// every request compiles.
func TestPlanCacheDisabled(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1, PlanCache: -1})
	req := Request{Query: "E(x,y), E(y,z), E(x,z)"}
	for i := 0; i < 2; i++ {
		resp, err := e.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.PlanCached {
			t.Fatalf("run %d hit a disabled plan cache", i)
		}
	}
	if s := e.Stats().Plans; s.Capacity != 0 || s.Hits != 0 {
		t.Fatalf("disabled plan cache reported %+v", s)
	}
}

// TestPlanCacheLRUEvicts bounds the cache: distinct queries past the
// capacity evict the least recently used plan.
func TestPlanCacheLRUEvicts(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1, PlanCache: 2})
	queries := []string{
		"E(x,y), E(y,z)",
		"E(x,y), E(y,z), E(z,w)",
		"E(x,y), E(y,z), E(x,z)",
	}
	for _, q := range queries {
		if _, err := e.Do(Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats().Plans
	if s.Size != 2 || s.Evictions != 1 {
		t.Fatalf("plan cache after overflow = %+v, want size 2, 1 eviction", s)
	}
	// The first query was evicted: re-running it compiles again.
	resp, err := e.Do(Request{Query: queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.PlanCached {
		t.Fatal("evicted plan reported as cached")
	}

	// A hit refreshes recency: touching the first query before the
	// overflow leaves the second least recently used, so it is the victim.
	e = NewEngine(testDB(), Config{Workers: 1, PlanCache: 2})
	for _, q := range []string{queries[0], queries[1], queries[0], queries[2]} {
		if _, err := e.Do(Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats().Plans; s.Size != 2 || s.Hits != 1 || s.Evictions != 1 {
		t.Fatalf("plan cache after a hit and an overflow = %+v, want size 2, 1 hit, 1 eviction", s)
	}
	for i, want := range []bool{true, false} {
		resp, err := e.Do(Request{Query: queries[i]})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.PlanCached != want {
			t.Fatalf("query %d: plan cached = %v, want %v (the hit must refresh its recency)", i, resp.Stats.PlanCached, want)
		}
	}
}

// twoRelDB pairs the test graph with an independent relation R, to
// show updates unbind per touched relation, not globally.
func twoRelDB() *relation.DB {
	g := testDB()
	e, _ := g.Get("E")
	r := relation.MustNew("R", 2, [][]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}})
	return relation.NewDB(e, r)
}

// TestPlanCacheInvalidationOnUpdate is the staleness acceptance test: a
// warm binding must stop serving the moment its relation changes
// version, and the shape re-bound to the new snapshot must answer
// exactly as a fresh engine loaded at the new data would — without
// re-planning, and while plans over untouched relations stay bound.
func TestPlanCacheInvalidationOnUpdate(t *testing.T) {
	db := twoRelDB()
	e := NewEngine(db, Config{Workers: 1})
	triangle := Request{Query: "E(x,y), E(y,z), E(x,z)"}
	rquery := Request{Query: "R(x,y), R(y,z)"}

	before, err := e.Do(triangle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(rquery); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Do(triangle)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.PlanCached {
		t.Fatal("repeat before update missed the plan cache")
	}

	// Mutate E: a fresh triangle among high ids no base edge touches.
	ins := [][]int64{{9001, 9002}, {9002, 9003}, {9001, 9003}}
	if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: ins}); err != nil {
		t.Fatal(err)
	}

	after, err := e.Do(triangle)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Stats.PlanCached || !after.Stats.PlanRebound {
		t.Fatalf("post-update execution: cached=%v rebound=%v, want the kept shape re-bound",
			after.Stats.PlanCached, after.Stats.PlanRebound)
	}
	if after.Stats.Counters.TriePatches == 0 || after.Stats.Counters.TrieBuilds != 0 {
		t.Fatalf("re-bind built instead of patching: %+v", after.Stats.Counters)
	}
	if after.Count != before.Count+1 {
		t.Fatalf("post-update count %d, want %d (stale data?)", after.Count, before.Count+1)
	}
	// Ground truth: a fresh engine loaded at the updated snapshot.
	fresh := NewEngine(e.DB(), Config{Workers: 1})
	want, err := fresh.Do(triangle)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != want.Count {
		t.Fatalf("post-update count %d, fresh engine says %d", after.Count, want.Count)
	}

	// The new binding is resident: the repeat is a plain hit.
	rewarm, err := e.Do(triangle)
	if err != nil {
		t.Fatal(err)
	}
	if !rewarm.Stats.PlanCached || rewarm.Stats.PlanRebound || rewarm.Count != after.Count {
		t.Fatalf("re-warmed run: cached=%v rebound=%v count=%d, want a plain hit with %d",
			rewarm.Stats.PlanCached, rewarm.Stats.PlanRebound, rewarm.Count, after.Count)
	}

	// R's binding never staled: E's update does not touch it.
	runchanged, err := e.Do(rquery)
	if err != nil {
		t.Fatal(err)
	}
	if !runchanged.Stats.PlanCached || runchanged.Stats.PlanRebound {
		t.Fatal("update to E unbound a plan that only touches R")
	}
	if s := e.Stats().Plans; s.Misses != 2 || s.Rebinds != 1 {
		t.Fatalf("plan cache stats = %+v, want the 2 cold misses and 1 re-bind", s)
	}
}

// TestPlanCacheUpdateReleasesStalePlans guards the memory side of
// invalidation: updates unbind the entries they staled eagerly, so no
// cached plan pins a superseded version's tries, and one entry per
// query serves every version. Plans over untouched relations stay
// bound.
func TestPlanCacheUpdateReleasesStalePlans(t *testing.T) {
	e := NewEngine(twoRelDB(), Config{Workers: 1})
	if _, err := e.Do(Request{Query: "R(x,y), R(y,z)"}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"}); err != nil {
			t.Fatal(err)
		}
		tup := [][]int64{{30000 + i, 30001 + i}}
		if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: tup}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Plans.Size != 2 || s.Plans.Misses != 2 {
		t.Fatalf("plan cache after 10 updates = %+v, want the 2 entries of the 2 cold misses", s.Plans)
	}
	if s.Plans.Invalidations != 10 || s.Plans.Rebinds != 9 {
		t.Fatalf("plan cache after 10 updates = %+v, want 10 unbinds and 9 re-binds", s.Plans)
	}
	// After the last update nothing in the cache holds a trie of E.
	for _, ent := range e.plans.entries {
		if ent.names[0] == "E" && (ent.bound() || ent.embedded != nil) {
			t.Fatalf("E's entry still pins the superseded version: %+v", ent)
		}
	}
	// R's plan was never staled by E's updates.
	resp, err := e.Do(Request{Query: "R(x,y), R(y,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Stats.PlanCached || resp.Stats.PlanRebound {
		t.Fatal("plan over untouched relation R was unbound by E's updates")
	}
}

// TestBudgetEvictionRebinds: a byte-budget eviction in the trie
// registry unbinds the cached plans pinning that index, so TrieBudget
// keeps bounding resident trie memory (a pinned-but-evicted trie would
// otherwise live on inside warm plans while the registry reports its
// bytes reclaimed) — and the next read re-binds the kept shape rather
// than planning again.
func TestBudgetEvictionRebinds(t *testing.T) {
	// A 1-byte budget admits one resident index at a time: the second
	// query needs E under the opposite column order, so building it
	// evicts the first query's trie — and must unbind its plan too.
	e := NewEngine(testDB(), Config{Workers: 1, TrieBudget: 1})
	if _, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(Request{Query: "E(x,y), E(y,x)"}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if before.Registry.Evictions == 0 || before.Plans.Invalidations == 0 {
		t.Fatalf("trie eviction did not unbind pinning plans: %+v / %+v", before.Registry, before.Plans)
	}
	// The first query's binding went with its trie; its shape did not.
	resp, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Stats.PlanCached || !resp.Stats.PlanRebound {
		t.Fatalf("read after eviction: cached=%v rebound=%v, want the kept shape re-bound",
			resp.Stats.PlanCached, resp.Stats.PlanRebound)
	}
	if resp.Stats.Counters.TrieBuilds == 0 {
		t.Fatal("re-bind served the evicted trie without rebuilding it")
	}
	after := e.Stats().Plans
	if after.Rebinds != before.Plans.Rebinds+1 || after.Misses != before.Plans.Misses {
		t.Fatalf("read after eviction moved plans from %+v to %+v, want one more re-bind and no miss", before.Plans, after)
	}
}

// TestPrepare covers the prepared-statement lifecycle: prepare warms
// the plan cache, executions hit it, by-id execution works through
// DoCtx, and Close unregisters.
func TestPrepare(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1})
	stmt, err := e.Prepare(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if stmt.ID() == "" || stmt.Text() == "" {
		t.Fatalf("stmt = %q / %q", stmt.ID(), stmt.Text())
	}
	if got := e.Stats().Prepared; got != 1 {
		t.Fatalf("prepared = %d, want 1", got)
	}

	// The very first execution rides the prepare-time compile.
	resp, err := stmt.Do(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Stats.PlanCached {
		t.Fatal("first execution of a prepared statement compiled again")
	}

	n, err := stmt.CountCtx(context.Background())
	if err != nil || n != resp.Count {
		t.Fatalf("CountCtx = %d, %v; want %d", n, err, resp.Count)
	}

	// Query-by-id through the ordinary Do path, with an override.
	byID, err := e.DoCtx(context.Background(), Request{Stmt: stmt.ID(), Mode: "eval", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if byID.Mode != "eval" || len(byID.Tuples) != 2 || byID.Count != resp.Count {
		t.Fatalf("by-id eval = %+v", byID)
	}

	// Errors: both query and stmt, unknown id, preparing a stmt.
	if _, err := e.DoCtx(context.Background(), Request{Stmt: stmt.ID(), Query: "E(x,y)"}); err == nil {
		t.Fatal("want error for request naming both query and stmt")
	}
	if _, err := e.Stmt("s999"); err == nil {
		t.Fatal("want error for unknown stmt id")
	}
	if _, err := e.Prepare(Request{Stmt: stmt.ID()}); err == nil {
		t.Fatal("want error preparing from a stmt id")
	}
	if _, err := e.Prepare(Request{Query: "not a query"}); err == nil {
		t.Fatal("want parse error from Prepare")
	}
	if _, err := e.Prepare(Request{Query: "Z(x,y)"}); err == nil {
		t.Fatal("want compile error from Prepare (unknown relation)")
	}
	if _, err := e.Prepare(Request{Query: "E(x,y)", Mode: "stream"}); err == nil {
		t.Fatal("want error preparing mode stream (per-execution transport)")
	}
	if _, err := e.Prepare(Request{Query: "E(x,y)", Mode: "explain"}); err == nil {
		t.Fatal("want error preparing unknown mode")
	}
	if _, err := e.Prepare(Request{Query: "E(x,y)", Mode: "aggregate", Semiring: "avg"}); err == nil {
		t.Fatal("want error preparing unknown semiring")
	}

	stmt.Close()
	if got := e.Stats().Prepared; got != 0 {
		t.Fatalf("prepared after close = %d, want 0", got)
	}
	if _, err := e.DoCtx(context.Background(), Request{Stmt: stmt.ID()}); err == nil {
		t.Fatal("closed statement still executable by id")
	}
	stmt.Close() // idempotent
}

// TestPrepareRegistryCap: the registry refuses registrations past
// MaxPrepared (a leaked-handle guard), and Close frees capacity.
func TestPrepareRegistryCap(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1, MaxPrepared: 2})
	s1, err := e.Prepare(Request{Query: "E(x,y)"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(Request{Query: "E(x,y), E(y,z)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(Request{Query: "E(a,b), E(b,a)"}); err == nil {
		t.Fatal("third Prepare exceeded MaxPrepared: 2 without error")
	}
	s1.Close()
	if _, err := e.Prepare(Request{Query: "E(a,b), E(b,a)"}); err != nil {
		t.Fatalf("Prepare after Close still capped: %v", err)
	}
}

// TestStreamCtxSummarySemantics pins the trailer contract: a result of
// exactly limit rows is not truncated (truncation requires a witness
// row beyond the limit), and a consumer stop counts the row it was
// delivered.
func TestStreamCtxSummarySemantics(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1})
	query := "E(x,y), E(y,z), E(x,z)"
	full, err := e.Do(Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	total := full.Count

	// limit == |result|: everything streamed, nothing truncated.
	sum, err := e.StreamCtx(context.Background(), Request{Query: query, Limit: int(total)},
		nil, func([]int64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != total || sum.Truncated {
		t.Fatalf("exact-limit stream: %+v, want count %d untruncated", sum, total)
	}

	// limit < |result|: truncated at the limit.
	sum, err = e.StreamCtx(context.Background(), Request{Query: query, Limit: 5},
		nil, func([]int64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 5 || !sum.Truncated {
		t.Fatalf("under-limit stream: %+v, want 5 truncated", sum)
	}

	// Consumer stop on the k-th row: that row is counted, no truncation.
	k := 0
	sum, err = e.StreamCtx(context.Background(), Request{Query: query},
		nil, func([]int64) bool { k++; return k < 3 })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 3 || sum.Truncated {
		t.Fatalf("consumer-stop stream: %+v after %d deliveries, want count 3 untruncated", sum, k)
	}

	// A negative override clears a prepared statement's default limit
	// (0 would keep it: zero means unset in the merge).
	stmt, err := e.Prepare(Request{Query: query, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum, err = e.StreamCtx(context.Background(), Request{Stmt: stmt.ID()},
		nil, func([]int64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 2 || !sum.Truncated {
		t.Fatalf("prepared-default stream: %+v, want 2 truncated", sum)
	}
	sum, err = e.StreamCtx(context.Background(), Request{Stmt: stmt.ID(), Limit: -1},
		nil, func([]int64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != total || sum.Truncated {
		t.Fatalf("negative-limit stream: %+v, want full %d untruncated", sum, total)
	}
}

// TestPrepareFollowsUpdates: a statement prepared before an update
// answers from the new snapshot afterwards (the engine variant is
// never pinned to stale data).
func TestPrepareFollowsUpdates(t *testing.T) {
	e := NewEngine(twoRelDB(), Config{Workers: 1})
	stmt, err := e.Prepare(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.CountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ins := [][]int64{{9001, 9002}, {9002, 9003}, {9001, 9003}}
	if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: ins}); err != nil {
		t.Fatal(err)
	}
	after, err := stmt.CountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Fatalf("prepared count after update = %d, want %d", after, before+1)
	}
}

// TestStmtRows checks the streaming iterator against buffered eval:
// same tuples, same order; break stops the scan; a cancelled ctx ends
// the stream with its error.
func TestStmtRows(t *testing.T) {
	e := NewEngine(testDB(), Config{Workers: 1})
	stmt, err := e.Prepare(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}

	want, err := stmt.Do(context.Background(), Request{Mode: "eval", Limit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}

	var got [][]int64
	for row, rerr := range stmt.Rows(context.Background()) {
		if rerr != nil {
			t.Fatal(rerr)
		}
		got = append(got, row)
	}
	if int64(len(got)) != want.Count {
		t.Fatalf("Rows yielded %d tuples, eval counted %d", len(got), want.Count)
	}
	for i, tup := range want.Tuples {
		if fmt.Sprint(got[i]) != fmt.Sprint(tup) {
			t.Fatalf("row %d = %v, eval says %v", i, got[i], tup)
		}
	}

	// Early break is a clean stop, not an error.
	seen := 0
	for _, rerr := range stmt.Rows(context.Background()) {
		if rerr != nil {
			t.Fatal(rerr)
		}
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("broke after %d rows, want 3", seen)
	}

	// A pre-cancelled ctx yields exactly one error pair.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var errSeen error
	rows := 0
	for row, rerr := range stmt.Rows(ctx) {
		if rerr != nil {
			errSeen = rerr
			continue
		}
		_ = row
		rows++
	}
	if !errors.Is(errSeen, context.Canceled) || rows != 0 {
		t.Fatalf("cancelled Rows: err=%v rows=%d", errSeen, rows)
	}
}

// TestDoCtxTimeout: a 20ms budget on a heavy cyclic query fails with
// DeadlineExceeded and does not count as a completed query.
func TestDoCtxTimeout(t *testing.T) {
	db := dataset.CliqueUnion(1000, 800, 18, 1.6, 9).DB(false)
	e := NewEngine(db, Config{Workers: 1})
	// 20ms: far below the query's runtime (≈ 150ms on a 2-core host, so
	// the deadline lands mid-join) yet wide enough that the scan
	// demonstrably worked before it tripped.
	req := Request{Query: "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)", TimeoutMS: 20}
	// Warm the plan first so the timeout lands in execution, not compile.
	warm := req
	warm.TimeoutMS = 0
	if _, err := e.Do(warm); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	_, err := e.DoCtx(context.Background(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	after := e.Stats()
	if after.Queries != before.Queries {
		t.Fatalf("timed-out query counted as completed (%d -> %d)", before.Queries, after.Queries)
	}
	// ... but the work it performed before the deadline still lands in
	// the lifetime counters.
	if after.Lifetime.Total() <= before.Lifetime.Total() {
		t.Fatalf("timed-out query's work missing from lifetime counters (%d -> %d)",
			before.Lifetime.Total(), after.Lifetime.Total())
	}
}

// TestCancelUpdateStress is the -race acceptance test: queries being
// cancelled mid-join while updates land concurrently, with no leaked
// workers afterwards. Run under -race in CI.
func TestCancelUpdateStress(t *testing.T) {
	base := runtime.NumGoroutine()
	db := dataset.CliqueUnion(300, 170, 14, 1.6, 9).DB(false)
	e := NewEngine(db, Config{Workers: 2})

	const clients = 8
	const perClient = 10
	var wg, uwg sync.WaitGroup

	// Updater: small insert/delete deltas landing throughout.
	stop := make(chan struct{})
	uwg.Add(1)
	go func() {
		defer uwg.Done()
		i := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			tup := [][]int64{{20000 + i, 20001 + i}}
			if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: tup}); err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Update(UpdateRequest{Relation: "E", Deletes: tup}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				delay := time.Duration(rng.Intn(15)) * time.Millisecond
				timer := time.AfterFunc(delay, cancel)
				_, err := e.DoCtx(ctx, Request{
					Query:   "E(a,b), E(b,c), E(c,d), E(d,a)",
					Workers: 2,
				})
				timer.Stop()
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					errs <- fmt.Errorf("client %d query %d: %w", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	uwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// No leaked workers: the goroutine count settles back to (about)
	// the baseline once cancelled queries have drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The engine is still healthy: a fresh query answers and matches a
	// fresh engine at the final snapshot.
	resp, err := e.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine(e.DB(), Config{Workers: 1})
	want, err := fresh.Do(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != want.Count {
		t.Fatalf("post-stress count %d, fresh engine says %d", resp.Count, want.Count)
	}
}
