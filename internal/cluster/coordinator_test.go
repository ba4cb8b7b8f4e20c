package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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
		shards[i] = NewEngineShard(fmt.Sprintf("shard-%d", i), e)
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

// checkDo runs req against the fleet and the single engine (pinned to
// the greedy orderer the coordinator forces) and requires identical
// results.
func checkDo(t *testing.T, h *harness, req server.Request) (*server.Response, *server.Response) {
	t.Helper()
	ctx := context.Background()
	merged, err := h.coord.Do(ctx, req)
	if err != nil {
		t.Fatalf("coordinator %+v: %v", req, err)
	}
	sreq := req
	sreq.Orderer = "greedy"
	want, err := h.single.DoCtx(ctx, sreq)
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
					sreq := req
					sreq.Orderer = "greedy"
					wantOrder, wantRows, wantSum := streamAll(t, func(hd func([]string), row func([]int64) bool) (server.StreamSummary, error) {
						return h.single.StreamCtx(ctx, sreq, hd, row)
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

// TestCoordinatorRouteCache checks the routing cache keys on the global
// version vector: repeats hit, an update anywhere moves the key.
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
	if st.Routes.Hits < 1 || st.Routes.Misses < 1 {
		t.Fatalf("route cache hits=%d misses=%d after a repeat", st.Routes.Hits, st.Routes.Misses)
	}
	if _, err := h.coord.Update(ctx, server.UpdateRequest{Relation: "E", Inserts: [][]int64{{500, 501}}}); err != nil {
		t.Fatal(err)
	}
	misses := st.Routes.Misses
	if _, err := h.coord.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	st, _ = h.coord.Stats(ctx)
	if st.Routes.Misses != misses+1 {
		t.Fatalf("update did not move the route key: misses %d -> %d", misses, st.Routes.Misses)
	}
}

// movingShard wraps a shard and injects one local update between the
// coordinator's handshake and the query's execution — the exact race
// the consistent-snapshot check exists to catch.
type movingShard struct {
	*EngineShard
	delta server.UpdateRequest
	armed bool
}

func (m *movingShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	if m.armed {
		m.armed = false
		if _, err := m.Engine().Update(m.delta); err != nil {
			return nil, err
		}
	}
	return m.EngineShard.Do(ctx, req)
}

func (m *movingShard) Stream(ctx context.Context, req server.Request, header func([]string), row func([]int64) bool) (server.StreamSummary, error) {
	if m.armed {
		m.armed = false
		if _, err := m.Engine().Update(m.delta); err != nil {
			return server.StreamSummary{}, err
		}
	}
	return m.EngineShard.Stream(ctx, req, header, row)
}

// TestCoordinatorSnapshotMoved rejects a merge whose shard moved
// between handshake and execution, for both buffered and streaming
// paths, and recovers on retry once the fleet settles.
func TestCoordinatorSnapshotMoved(t *testing.T) {
	db := testGraphDB()
	ctx := context.Background()
	dbs, routing, err := Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	mover := &movingShard{
		EngineShard: NewEngineShard("shard-0", server.NewEngine(dbs[0], server.Config{})),
		delta:       server.UpdateRequest{Relation: "E", Inserts: [][]int64{{777, 778}}},
	}
	coord, err := New(routing, []Shard{mover, NewEngineShard("shard-1", server.NewEngine(dbs[1], server.Config{}))}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	mover.armed = true
	if _, err := coord.Do(ctx, server.Request{Query: "E(x,y), E(x,z)"}); !errors.Is(err, ErrSnapshotMoved) {
		t.Fatalf("buffered merge after mid-query update: %v, want ErrSnapshotMoved", err)
	}
	// The fleet has settled (the injected update landed); the retry
	// merges cleanly.
	if _, err := coord.Do(ctx, server.Request{Query: "E(x,y), E(x,z)"}); err != nil {
		t.Fatalf("retry after settle: %v", err)
	}

	// Re-arm with a fresh tuple — replaying the first delta would be a
	// set-semantics no-op that leaves the version vector unmoved.
	mover.delta = server.UpdateRequest{Relation: "E", Inserts: [][]int64{{888, 889}}}
	mover.armed = true
	_, err = coord.StreamCtx(ctx, server.Request{Query: "E(x,y), E(x,z)", Mode: "stream"},
		nil, func(mu []int64) bool { return true })
	if !errors.Is(err, ErrSnapshotMoved) {
		t.Fatalf("stream after mid-query update: %v, want ErrSnapshotMoved", err)
	}
	st, _ := coord.Stats(ctx)
	if st.SnapshotRejects != 2 {
		t.Fatalf("snapshot_rejects = %d, want 2", st.SnapshotRejects)
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
		NewEngineShard("shard-0", server.NewEngine(dbs[0], server.Config{})),
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
