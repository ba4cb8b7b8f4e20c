package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/stats"
)

// harness is one in-process fleet next to the single engine it must be
// indistinguishable from.
type harness struct {
	single  *server.Engine
	engines []*server.Engine
	coord   *Coordinator
}

// newHarness partitions db across n in-process engines and stands up a
// coordinator over them, plus one single engine over the full db as
// ground truth.
func newHarness(t *testing.T, db *relation.DB, n int, cfg server.Config) *harness {
	t.Helper()
	dbs, routing, err := Partition(db, n)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{single: server.NewEngine(db, cfg)}
	shards := make([]Shard, n)
	for i, pdb := range dbs {
		e := server.NewEngine(pdb, cfg)
		h.engines = append(h.engines, e)
		shards[i] = newEngineShard(fmt.Sprintf("shard-%d", i), e)
	}
	h.coord, err = New(routing, shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// shardableQueries is the differential workload: every routable shape —
// single atom, stars of width 2..3, cross-relation star, constant
// selections on the lead and non-lead positions.
var shardableQueries = []string{
	"E(x,y)",
	"E(x,y), E(x,z)",
	"E(x,y), E(x,z), E(x,w)",
	"E(x,y), R(x,z)",
	"E(x,5), E(x,z)",
	"E(3,y)",
	"E(3,y), E(3,z)",
}

// checkDo runs req against the fleet and the single engine and requires
// identical results.
func checkDo(t *testing.T, h *harness, req server.Request) (*server.Response, *server.Response) {
	t.Helper()
	ctx := context.Background()
	merged, err := h.coord.Do(ctx, req)
	if err != nil {
		t.Fatalf("coordinator %+v: %v", req, err)
	}
	want, err := h.single.DoCtx(ctx, req)
	if err != nil {
		t.Fatalf("single engine %+v: %v", req, err)
	}
	if merged.Count != want.Count {
		t.Errorf("%+v: count %d, single engine %d", req, merged.Count, want.Count)
	}
	if merged.Value != want.Value {
		t.Errorf("%+v: value %v, single engine %v", req, merged.Value, want.Value)
	}
	if !reflect.DeepEqual(merged.Order, want.Order) {
		t.Errorf("%+v: order %v, single engine %v", req, merged.Order, want.Order)
	}
	if merged.Truncated != want.Truncated {
		t.Errorf("%+v: truncated %v, single engine %v", req, merged.Truncated, want.Truncated)
	}
	if !reflect.DeepEqual(merged.Tuples, want.Tuples) {
		t.Errorf("%+v: merged eval sample diverges from single engine\nmerged: %v\nsingle: %v", req, merged.Tuples, want.Tuples)
	}
	return merged, want
}

// streamAll collects a full stream: order, rows, summary.
func streamAll(t *testing.T, run func(header func([]string), row func([]int64) bool) (server.StreamSummary, error)) ([]string, [][]int64, server.StreamSummary) {
	t.Helper()
	var order []string
	var rows [][]int64
	sum, err := run(
		func(o []string) { order = append([]string(nil), o...) },
		func(mu []int64) bool {
			rows = append(rows, append([]int64(nil), mu...))
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	return order, rows, sum
}

// TestCoordinatorDifferential is the acceptance harness: at shard
// counts 1, 2 and 4, every shardable query's count, eval sample,
// aggregate and stream are identical to a single engine over the union,
// and the fleet's lifetime counters fold exactly.
func TestCoordinatorDifferential(t *testing.T) {
	db := testGraphDB()
	ctx := context.Background()
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			h := newHarness(t, db, n, server.Config{Workers: 2})
			for _, q := range shardableQueries {
				checkDo(t, h, server.Request{Query: q})
				checkDo(t, h, server.Request{Query: q, Mode: "eval"})
				checkDo(t, h, server.Request{Query: q, Mode: "eval", Limit: 7})
				checkDo(t, h, server.Request{Query: q, Mode: "eval", Limit: 100000})
				checkDo(t, h, server.Request{Query: q, Mode: "aggregate"})
				checkDo(t, h, server.Request{Query: q, Semiring: "ignored outside aggregate"})
				checkDo(t, h, server.Request{Query: q, Mode: "aggregate", Semiring: "sum"})
				checkDo(t, h, server.Request{Query: q, Mode: "aggregate", Semiring: "min"})

				for _, limit := range []int{0, 5} {
					req := server.Request{Query: q, Mode: "stream", Limit: limit}
					gotOrder, gotRows, gotSum := streamAll(t, func(hd func([]string), row func([]int64) bool) (server.StreamSummary, error) {
						return h.coord.StreamCtx(ctx, req, hd, row)
					})
					wantOrder, wantRows, wantSum := streamAll(t, func(hd func([]string), row func([]int64) bool) (server.StreamSummary, error) {
						return h.single.StreamCtx(ctx, req, hd, row)
					})
					if !reflect.DeepEqual(gotOrder, wantOrder) {
						t.Errorf("stream %s limit=%d: order %v, single %v", q, limit, gotOrder, wantOrder)
					}
					if !reflect.DeepEqual(gotSum, wantSum) {
						t.Errorf("stream %s limit=%d: summary %+v, single %+v", q, limit, gotSum, wantSum)
					}
					if !reflect.DeepEqual(gotRows, wantRows) {
						t.Errorf("stream %s limit=%d: %d merged rows diverge from single engine's %d", q, limit, len(gotRows), len(wantRows))
					}
				}
			}

			// Counter exactness: the fleet's merged lifetime is the exact
			// fold of the per-shard lifetimes, via the same Merge.
			st, err := h.coord.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var want stats.Counters
			for _, e := range h.engines {
				es := e.Stats()
				want.Merge(&es.Lifetime)
			}
			if !reflect.DeepEqual(st.Lifetime, want) {
				t.Errorf("merged lifetime counters %+v diverge from exact per-shard fold %+v", st.Lifetime, want)
			}
			if st.Shards != n || len(st.PerShard) != n {
				t.Errorf("stats fleet size %d/%d, want %d", st.Shards, len(st.PerShard), n)
			}

			// Unshardable shapes are refused with the typed error, never
			// silently partial.
			if _, err := h.coord.Do(ctx, server.Request{Query: "E(x,y), E(y,z), E(x,z)"}); !errors.Is(err, ErrNotShardable) {
				t.Errorf("triangle: %v, want ErrNotShardable", err)
			}
		})
	}
}

// TestCoordinatorUpdateDifferential applies one delta through the
// coordinator and the same delta to the single engine, then requires
// query results to stay identical — the routed sub-deltas land exactly
// where the partitioner would have put the tuples.
func TestCoordinatorUpdateDifferential(t *testing.T) {
	db := testGraphDB()
	ctx := context.Background()
	h := newHarness(t, db, 4, server.Config{})
	delta := server.UpdateRequest{
		Relation: "E",
		Inserts:  [][]int64{{1, 2}, {2, 3}, {3, 4}, {200, 201}, {201, 202}, {202, 200}},
		Deletes:  [][]int64{{0, 1}},
	}
	res, err := h.coord.Update(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal("delta reported unapplied")
	}
	if _, err := h.single.Update(delta); err != nil {
		t.Fatal(err)
	}
	for _, q := range shardableQueries {
		checkDo(t, h, server.Request{Query: q})
		checkDo(t, h, server.Request{Query: q, Mode: "eval"})
	}

	// A second identical update is a no-op everywhere (set semantics),
	// and versions do not advance — the retry-after-partial-failure
	// convergence story rests on this.
	res2, err := h.coord.Update(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applied {
		t.Fatal("replayed delta reported applied")
	}

	// Unknown relations fail like a single engine, even for an empty
	// delta that routes nowhere.
	if _, err := h.coord.Update(ctx, server.UpdateRequest{Relation: "nope"}); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// TestCoordinatorRouteCache checks the routing cache keys on query text
// alone: repeats hit, and an update — which cannot change a route or the
// structural variable order pinned with it — leaves the entry where it
// is.
func TestCoordinatorRouteCache(t *testing.T) {
	db := testGraphDB()
	ctx := context.Background()
	h := newHarness(t, db, 2, server.Config{})
	req := server.Request{Query: "E(x,y), E(x,z)"}
	if _, err := h.coord.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := h.coord.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	st, _ := h.coord.Stats(ctx)
	if st.Routes.Hits != 1 || st.Routes.Misses != 1 {
		t.Fatalf("route cache hits=%d misses=%d after a repeat, want 1 and 1", st.Routes.Hits, st.Routes.Misses)
	}
	if _, err := h.coord.Update(ctx, server.UpdateRequest{Relation: "E", Inserts: [][]int64{{500, 501}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.coord.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	st, _ = h.coord.Stats(ctx)
	if st.Routes.Hits != 2 || st.Routes.Misses != 1 || st.Routes.Size != 1 {
		t.Fatalf("after an update: hits=%d misses=%d size=%d, want 2, 1, 1 — the update must not move the key",
			st.Routes.Hits, st.Routes.Misses, st.Routes.Size)
	}
}

// TestCoordinatorRouteCacheLRU checks the route cache evicts the least
// recently used query past its capacity, that a hit refreshes recency,
// and that Routes.Evictions counts each eviction.
func TestCoordinatorRouteCacheLRU(t *testing.T) {
	dbs, routing, err := Partition(testGraphDB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]Shard, len(dbs))
	for i, pdb := range dbs {
		shards[i] = newEngineShard(fmt.Sprintf("shard-%d", i), server.NewEngine(pdb, server.Config{}))
	}
	coord, err := New(routing, shards, Config{routeCache: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	do := func(q string) {
		t.Helper()
		if _, err := coord.Do(ctx, server.Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(hits, misses, evictions int64) {
		t.Helper()
		st, _ := coord.Stats(ctx)
		r := st.Routes
		if r.Hits != hits || r.Misses != misses || r.Evictions != evictions || r.Size != 2 || r.Capacity != 2 {
			t.Fatalf("routes = %+v, want hits=%d misses=%d evictions=%d size=2 capacity=2", r, hits, misses, evictions)
		}
	}
	q0, q1, q2 := "E(x,y)", "E(x,y), E(x,z)", "E(x,y), E(x,z), E(x,w)"
	// q0's hit leaves q1 least recently used: q2's insert evicts q1.
	do(q0)
	do(q1)
	do(q0)
	do(q2)
	check(1, 3, 1)
	// q0 is still resident; q1 misses again and evicts q2, not the
	// refreshed q0.
	do(q0)
	do(q1)
	check(2, 4, 2)
	do(q0)
	check(3, 4, 2)
}

// rootOn returns a root value, well clear of the test graphs' vertex
// ids, whose tuples hash to shard of n.
func rootOn(shard, n int) int64 {
	for v := int64(100000); ; v++ {
		if ShardOf(v, n) == shard {
			return v
		}
	}
}

// movingShard wraps a shard and, before each of its next moves queries,
// lands one update on the shard's engine behind the coordinator's back
// — the race the optimistic handshake exists to catch. landed keeps the
// deltas, for the test to replay on its oracle.
type movingShard struct {
	Shard
	engine *server.Engine
	root   int64 // first attribute of the landed tuples: must hash to this shard
	moves  int
	landed []server.UpdateRequest
	calls  int // Do and Stream calls seen
}

func (m *movingShard) move() error {
	m.calls++
	if m.moves == 0 {
		return nil
	}
	m.moves--
	// A fresh tuple each time — replaying one would be a set-semantics
	// no-op that leaves the version vector unmoved.
	delta := server.UpdateRequest{Relation: "E", Inserts: [][]int64{{m.root, m.root + int64(len(m.landed)) + 1}}}
	m.landed = append(m.landed, delta)
	_, err := m.engine.Update(delta)
	return err
}

func (m *movingShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	if err := m.move(); err != nil {
		return nil, err
	}
	return m.Shard.Do(ctx, req)
}

func (m *movingShard) Stream(ctx context.Context, req server.Request, header func([]string), row func([]int64) bool) (server.StreamSummary, error) {
	if err := m.move(); err != nil {
		return server.StreamSummary{}, err
	}
	return m.Shard.Stream(ctx, req, header, row)
}

// newMovingShard wraps an in-process shard 0 of n over pdb.
func newMovingShard(pdb *relation.DB, n int) *movingShard {
	e := server.NewEngine(pdb, server.Config{})
	return &movingShard{Shard: newEngineShard("shard-0", e), engine: e, root: rootOn(0, n)}
}

// TestCoordinatorSnapshotMoved pins what the optimistic handshake does
// with an update the coordinator did not route. One such update is
// absorbed: the shard refuses the stale expectation, the whole fan-out
// re-runs once, and the answer is the single engine's at the post-update
// content — buffered and streamed, on merged and single-shard routes. A
// shard that moves before every call exhausts the one retry and fails
// ErrSnapshotMoved: two calls to it, no third, and no answer merged from
// vectors the coordinator did not send.
func TestCoordinatorSnapshotMoved(t *testing.T) {
	db := testGraphDB()
	ctx := context.Background()
	dbs, routing, err := Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	mover := newMovingShard(dbs[0], 2)
	h := &harness{single: server.NewEngine(db, server.Config{})}
	h.coord, err = New(routing, []Shard{mover, newEngineShard("shard-1", server.NewEngine(dbs[1], server.Config{}))}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// settle replays on the oracle what landed behind the coordinator.
	applied := 0
	settle := func() {
		for ; applied < len(mover.landed); applied++ {
			if _, err := h.single.Update(mover.landed[applied]); err != nil {
				t.Fatal(err)
			}
		}
	}
	counters := func() (retries, rejects int64) {
		st, err := h.coord.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.SnapshotRetries, st.SnapshotRejects
	}
	star := "E(x,y), E(x,z)"
	onMover := fmt.Sprintf("E(%d,y)", mover.root) // a single-shard route to the mover
	checkDo(t, h, server.Request{Query: star})    // cold start: known is filled in

	wantRetries := int64(0)
	for _, q := range []string{star, onMover} {
		mover.moves = 1
		merged, err := h.coord.Do(ctx, server.Request{Query: q, Mode: "eval"})
		if err != nil {
			t.Fatalf("%s: one behind-the-back update was not absorbed: %v", q, err)
		}
		settle()
		want, err := h.single.DoCtx(ctx, server.Request{Query: q, Mode: "eval"})
		if err != nil {
			t.Fatal(err)
		}
		if merged.Count != want.Count || !reflect.DeepEqual(merged.Tuples, want.Tuples) {
			t.Fatalf("%s: absorbed answer (count %d) is not the single engine's at the post-update content (count %d)", q, merged.Count, want.Count)
		}

		mover.moves = 1
		req := server.Request{Query: q, Mode: "stream"}
		_, gotRows, gotSum := streamAll(t, func(hd func([]string), row func([]int64) bool) (server.StreamSummary, error) {
			return h.coord.StreamCtx(ctx, req, hd, row)
		})
		settle()
		wantRetries += 2
		_, wantRows, wantSum := streamAll(t, func(hd func([]string), row func([]int64) bool) (server.StreamSummary, error) {
			return h.single.StreamCtx(ctx, req, hd, row)
		})
		if !reflect.DeepEqual(gotRows, wantRows) || !reflect.DeepEqual(gotSum, wantSum) {
			t.Fatalf("%s: absorbed stream (%d rows) is not the single engine's at the post-update content (%d rows)", q, len(gotRows), len(wantRows))
		}
		if retries, rejects := counters(); retries != wantRetries || rejects != 0 {
			t.Fatalf("%s: snapshot_retries=%d snapshot_rejects=%d, want %d and 0", q, retries, rejects, wantRetries)
		}
	}

	// A shard that moves before every call: one retry, then the typed
	// refusal — and the fleet serves again once it settles.
	for k, run := range []func() error{
		func() error { _, err := h.coord.Do(ctx, server.Request{Query: star}); return err },
		func() error {
			_, err := h.coord.StreamCtx(ctx, server.Request{Query: star}, nil, func([]int64) bool {
				t.Error("a row was delivered from a fan-out that never stood at the vectors sent")
				return true
			})
			return err
		},
		func() error { _, err := h.coord.Do(ctx, server.Request{Query: onMover}); return err },
	} {
		mover.moves, mover.calls = 1000, 0
		if err := run(); !errors.Is(err, ErrSnapshotMoved) {
			t.Fatalf("run %d against a shard moving on every call: %v, want ErrSnapshotMoved", k, err)
		}
		if mover.calls != 2 {
			t.Fatalf("run %d: %d calls reached the moving shard, want the call and exactly one retry", k, mover.calls)
		}
		mover.moves = 0
		settle()
		wantRetries++
		if retries, rejects := counters(); retries != wantRetries || rejects != int64(k+1) {
			t.Fatalf("run %d: snapshot_retries=%d snapshot_rejects=%d, want %d and %d", k, retries, rejects, wantRetries, k+1)
		}
		checkDo(t, h, server.Request{Query: star})
	}
}

// spyShard counts the calls the coordinator makes to one shard.
type spyShard struct {
	Shard
	do, stream, versions, update atomic.Int64
}

func (s *spyShard) Versions(ctx context.Context, names []string) (map[string]uint64, error) {
	s.versions.Add(1)
	return s.Shard.Versions(ctx, names)
}

func (s *spyShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	s.do.Add(1)
	return s.Shard.Do(ctx, req)
}

func (s *spyShard) Stream(ctx context.Context, req server.Request, header func([]string), row func([]int64) bool) (server.StreamSummary, error) {
	s.stream.Add(1)
	return s.Shard.Stream(ctx, req, header, row)
}

func (s *spyShard) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	s.update.Add(1)
	return s.Shard.Update(ctx, req)
}

// TestCoordinatorCallBudget pins the healthy-fleet cost of the
// handshake: exactly one call per routed shard, for every mode, and no
// Versions call once a shard's vector is known — a coordinator-routed
// update included, whose result keeps the vector current so the read
// after it is neither a cold start nor a retry.
func TestCoordinatorCallBudget(t *testing.T) {
	db := testGraphDB()
	ctx := context.Background()
	dbs, routing, err := Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	spies := make([]*spyShard, 2)
	shards := make([]Shard, 2)
	for i, pdb := range dbs {
		spies[i] = &spyShard{Shard: newEngineShard(fmt.Sprintf("shard-%d", i), server.NewEngine(pdb, server.Config{}))}
		shards[i] = spies[i]
	}
	coord, err := New(routing, shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// calls runs one request and returns the Do, Stream and Versions calls
	// it cost, summed over the fleet.
	calls := func(req server.Request) (do, stream, versions int64) {
		t.Helper()
		for _, s := range spies {
			do -= s.do.Load()
			stream -= s.stream.Load()
			versions -= s.versions.Load()
		}
		var err error
		if req.Mode == "stream" {
			_, err = coord.StreamCtx(ctx, req, nil, func([]int64) bool { return true })
		} else {
			_, err = coord.Do(ctx, req)
		}
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		for _, s := range spies {
			do += s.do.Load()
			stream += s.stream.Load()
			versions += s.versions.Load()
		}
		return do, stream, versions
	}

	// Cold start: each routed shard is asked for its vector once.
	if do, _, versions := calls(server.Request{Query: "E(3,y), E(3,z)"}); do != 1 || versions != 1 {
		t.Fatalf("cold constant-head route: %d Do, %d Versions, want 1 and 1 (the routed shard only)", do, versions)
	}
	if do, _, versions := calls(server.Request{Query: "E(x,y), E(x,z)"}); do != 2 || versions != 1 {
		t.Fatalf("cold star: %d Do, %d Versions, want 2 and 1 (the shard not yet heard from)", do, versions)
	}

	budget := func(when string) {
		t.Helper()
		for _, c := range []struct {
			req        server.Request
			do, stream int64
		}{
			{server.Request{Query: "E(3,y), E(3,z)"}, 1, 0},
			{server.Request{Query: "E(4,y)", Mode: "eval"}, 1, 0},
			{server.Request{Query: "E(x,y), E(x,z)"}, 2, 0},
			{server.Request{Query: "E(x,y), E(x,z)", Mode: "eval"}, 2, 0},
			{server.Request{Query: "E(x,y), E(x,z)", Mode: "aggregate", Semiring: "sum"}, 2, 0},
			{server.Request{Query: "E(x,y), E(x,z)", Mode: "stream", Limit: 50}, 0, 2},
			{server.Request{Query: "E(3,y)", Mode: "stream"}, 0, 1},
		} {
			do, stream, versions := calls(c.req)
			if do != c.do || stream != c.stream || versions != 0 {
				t.Errorf("%s, %+v: %d Do, %d Stream, %d Versions; want %d, %d, 0", when, c.req, do, stream, versions, c.do, c.stream)
			}
		}
	}
	budget("warm")
	if _, err := coord.Update(ctx, server.UpdateRequest{Relation: "E", Inserts: [][]int64{{3, 900}, {4, 901}, {5, 902}, {6, 903}}}); err != nil {
		t.Fatal(err)
	}
	budget("after a routed update")
	st, err := coord.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotRetries != 0 || st.SnapshotRejects != 0 {
		t.Fatalf("snapshot_retries=%d snapshot_rejects=%d over a fleet only the coordinator wrote to, want 0 and 0", st.SnapshotRetries, st.SnapshotRejects)
	}
}

// failingShard fails every operation after construction — the
// mid-fleet outage case.
type failingShard struct{ name string }

var errShardDown = errors.New("connection refused")

func (f *failingShard) Name() string                    { return f.name }
func (f *failingShard) Ready(ctx context.Context) error { return errShardDown }
func (f *failingShard) Versions(ctx context.Context, names []string) (map[string]uint64, error) {
	return nil, errShardDown
}
func (f *failingShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	return nil, errShardDown
}
func (f *failingShard) Stream(ctx context.Context, req server.Request, header func([]string), row func([]int64) bool) (server.StreamSummary, error) {
	return server.StreamSummary{}, errShardDown
}
func (f *failingShard) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	return nil, errShardDown
}
func (f *failingShard) Stats(ctx context.Context) (*server.EngineStats, error) {
	return nil, errShardDown
}

// TestCoordinatorShardFailureTyped: a dead shard surfaces as a typed
// ShardError naming it, never a silent partial merge.
func TestCoordinatorShardFailureTyped(t *testing.T) {
	db := testGraphDB()
	ctx := context.Background()
	dbs, routing, err := Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(routing, []Shard{
		newEngineShard("shard-0", server.NewEngine(dbs[0], server.Config{})),
		&failingShard{name: "shard-1"},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Do(ctx, server.Request{Query: "E(x,y), E(x,z)"})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("dead shard: %v, want *ShardError", err)
	}
	if se.Shard != "shard-1" {
		t.Fatalf("error names shard %q, want shard-1", se.Shard)
	}
	if !errors.Is(err, errShardDown) {
		t.Fatalf("ShardError does not wrap the cause: %v", err)
	}
}

// TestCoordinatorNonFiniteSum: two shards each hold one self-loop
// (a, a) with a ≈ 1.33e18, so a 16-leg star's "sum" aggregate is
// a^17 ≈ 1.3e308 on each — finite — and their merged sum overflows to
// +Inf. The coordinator refuses the merge with its typed error, a 400
// over HTTP, as the single engine over the union refuses its own fold.
func TestCoordinatorNonFiniteSum(t *testing.T) {
	var loops [][]int64
	for v := int64(1_330_000_000_000_000_000); len(loops) < 2; v++ {
		if ShardOf(v, 2) == len(loops) {
			loops = append(loops, []int64{v, v})
		}
	}
	rel, err := relation.New("E", 2, loops)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, relation.NewDB(rel), 2, server.Config{})
	legs := make([]string, 16)
	for i := range legs {
		legs[i] = fmt.Sprintf("E(x,y%d)", i)
	}
	req := server.Request{Query: strings.Join(legs, ", "), Mode: "aggregate", Semiring: "sum"}
	for i, e := range h.engines {
		if resp, err := e.Do(req); err != nil || math.IsInf(resp.Value, 0) {
			t.Fatalf("shard %d: %+v, %v; want a finite value", i, resp, err)
		}
	}
	if _, err := h.single.Do(req); err == nil {
		t.Fatal("the single engine answered the overflowing sum")
	}
	_, err = h.coord.Do(context.Background(), req)
	var nf *nonFiniteError
	if !errors.As(err, &nf) || !math.IsInf(nf.value, 1) {
		t.Fatalf("coordinator: %v, want a *nonFiniteError carrying +Inf", err)
	}

	body, _ := json.Marshal(req)
	w := httptest.NewRecorder()
	NewHandler(h.coord).ServeHTTP(w, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
	var got map[string]string
	if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &got) != nil || !strings.Contains(got["error"], "+Inf") {
		t.Fatalf("HTTP: status %d, body %q; want 400 with an error naming +Inf", w.Code, w.Body)
	}
}
