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
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/server"
)

// streamAll collects a full stream of req: order, rows, summary.
func streamAll(t *testing.T, stream func(context.Context, server.Request, func([]string), func([]int64) bool) (server.StreamSummary, error), req server.Request) ([]string, [][]int64, server.StreamSummary) {
	t.Helper()
	var a latticeAnswer
	header, row := a.collect()
	sum, err := stream(context.Background(), req, header, row)
	if err != nil {
		t.Fatal(err)
	}
	return a.order, a.tuples, sum
}

// TestCoordinatorRouteCache checks the routing cache keys on query text
// alone: repeats hit, and an update — which cannot change a route or the
// structural variable order pinned with it — leaves the entry where it
// is.
func TestCoordinatorRouteCache(t *testing.T) {
	ctx := context.Background()
	coord, _ := newFleet(t, latticeDB(), 2, server.Config{}, Config{}, nil)
	req := server.Request{Query: "E(x,y), E(x,z)"}
	if _, err := coord.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	st, _ := coord.Stats(ctx)
	if st.Routes.Hits != 1 || st.Routes.Misses != 1 {
		t.Fatalf("route cache hits=%d misses=%d after a repeat, want 1 and 1", st.Routes.Hits, st.Routes.Misses)
	}
	if _, err := coord.Update(ctx, server.UpdateRequest{Relation: "E", Inserts: [][]int64{{500, 501}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	st, _ = coord.Stats(ctx)
	if st.Routes.Hits != 2 || st.Routes.Misses != 1 || st.Routes.Size != 1 {
		t.Fatalf("after an update: hits=%d misses=%d size=%d, want 2, 1, 1 — the update must not move the key",
			st.Routes.Hits, st.Routes.Misses, st.Routes.Size)
	}
}

// TestCoordinatorRouteCacheLRU checks the route cache evicts the least
// recently used query past its capacity, that a hit refreshes recency,
// and that Routes.Evictions counts each eviction.
func TestCoordinatorRouteCacheLRU(t *testing.T) {
	coord, _ := newFleet(t, latticeDB(), 2, server.Config{}, Config{routeCache: 2}, nil)
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
// — the race the optimistic handshake exists to catch.
type movingShard struct {
	Shard
	engine *server.Engine
	root   int64 // first attribute of the landed tuples: must hash to this shard
	moves  int
	landed int // updates landed so far
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
	m.landed++
	_, err := m.engine.Update(server.UpdateRequest{Relation: "E", Inserts: [][]int64{{m.root, m.root + int64(m.landed)}}})
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
// absorbed: the shard refuses the stale expectation and the whole
// fan-out re-runs once — buffered and streamed, on merged and
// single-shard routes (that the answer is then the post-update one is
// TestCoordinatorDifferential's). A shard that moves before every call exhausts
// the one retry and fails ErrSnapshotMoved: two calls to it, no third,
// and no answer merged from vectors the coordinator did not send.
func TestCoordinatorSnapshotMoved(t *testing.T) {
	ctx := context.Background()
	dbs, routing, err := Partition(latticeDB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	mover := newMovingShard(dbs[0], 2)
	coord, err := New(routing, []Shard{mover, newEngineShard("shard-1", server.NewEngine(dbs[1], server.Config{}))}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	counters := func() (retries, rejects int64) {
		st, err := coord.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.SnapshotRetries, st.SnapshotRejects
	}
	star := "E(x,y), E(x,z)"
	onMover := fmt.Sprintf("E(%d,y)", mover.root) // a single-shard route to the mover
	if _, err := coord.Do(ctx, server.Request{Query: star}); err != nil {
		t.Fatal(err) // cold start: known is filled in
	}

	wantRetries := int64(0)
	for _, q := range []string{star, onMover} {
		for _, mode := range []string{"eval", "stream"} {
			mover.moves = 1
			var err error
			if mode == "stream" {
				_, err = coord.StreamCtx(ctx, server.Request{Query: q}, nil, func([]int64) bool { return true })
			} else {
				_, err = coord.Do(ctx, server.Request{Query: q, Mode: mode})
			}
			if err != nil {
				t.Fatalf("%s %s: one behind-the-back update was not absorbed: %v", q, mode, err)
			}
			wantRetries++
			if retries, rejects := counters(); retries != wantRetries || rejects != 0 {
				t.Fatalf("%s %s: snapshot_retries=%d snapshot_rejects=%d, want %d and 0", q, mode, retries, rejects, wantRetries)
			}
		}
	}

	// A shard that moves before every call: one retry, then the typed
	// refusal — and the fleet serves again once it settles.
	for k, run := range []func() error{
		func() error { _, err := coord.Do(ctx, server.Request{Query: star}); return err },
		func() error {
			_, err := coord.StreamCtx(ctx, server.Request{Query: star}, nil, func([]int64) bool {
				t.Error("a row was delivered from a fan-out that never stood at the vectors sent")
				return true
			})
			return err
		},
		func() error { _, err := coord.Do(ctx, server.Request{Query: onMover}); return err },
	} {
		mover.moves, mover.calls = 1000, 0
		if err := run(); !errors.Is(err, ErrSnapshotMoved) {
			t.Fatalf("run %d against a shard moving on every call: %v, want ErrSnapshotMoved", k, err)
		}
		if mover.calls != 2 {
			t.Fatalf("run %d: %d calls reached the moving shard, want the call and exactly one retry", k, mover.calls)
		}
		mover.moves = 0
		wantRetries++
		if retries, rejects := counters(); retries != wantRetries || rejects != int64(k+1) {
			t.Fatalf("run %d: snapshot_retries=%d snapshot_rejects=%d, want %d and %d", k, retries, rejects, wantRetries, k+1)
		}
		if _, err := coord.Do(ctx, server.Request{Query: star}); err != nil {
			t.Fatalf("run %d: the settled fleet: %v", k, err)
		}
	}
}

// spyShard counts the calls the coordinator makes to one shard.
type spyShard struct {
	Shard
	do, stream, versions atomic.Int64
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

// TestCoordinatorCallBudget pins the healthy-fleet cost of the
// handshake: exactly one call per routed shard, for every mode, and no
// Versions call once a shard's vector is known — a coordinator-routed
// update included, whose result keeps the vector current so the read
// after it is neither a cold start nor a retry.
func TestCoordinatorCallBudget(t *testing.T) {
	ctx := context.Background()
	spies := make([]*spyShard, 2)
	coord, _ := newFleet(t, latticeDB(), 2, server.Config{}, Config{}, func(i int, s Shard) Shard {
		spies[i] = &spyShard{Shard: s}
		return spies[i]
	})
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
	ctx := context.Background()
	coord, _ := newFleet(t, latticeDB(), 2, server.Config{}, Config{}, func(i int, s Shard) Shard {
		if i == 1 {
			return &failingShard{name: "shard-1"}
		}
		return s
	})
	_, err := coord.Do(ctx, server.Request{Query: "E(x,y), E(x,z)"})
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
// +Inf. The coordinator refuses the merge with a 400 naming +Inf over
// HTTP, as the single engine over the union refuses its own fold.
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
	coord, engines := newFleet(t, relation.NewDB(rel), 2, server.Config{}, Config{}, nil)
	legs := make([]string, 16)
	for i := range legs {
		legs[i] = fmt.Sprintf("E(x,y%d)", i)
	}
	req := server.Request{Query: strings.Join(legs, ", "), Mode: "aggregate", Semiring: "sum"}
	for i, e := range engines {
		if resp, err := e.Do(req); err != nil || math.IsInf(resp.Value, 0) {
			t.Fatalf("shard %d: %+v, %v; want a finite value", i, resp, err)
		}
	}
	if _, err := server.NewEngine(relation.NewDB(rel), server.Config{}).Do(req); err == nil {
		t.Fatal("the single engine answered the overflowing sum")
	}
	body, _ := json.Marshal(req)
	w := httptest.NewRecorder()
	NewHandler(coord).ServeHTTP(w, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
	var got map[string]string
	if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &got) != nil || !strings.Contains(got["error"], "+Inf") {
		t.Fatalf("HTTP: status %d, body %q; want 400 with an error naming +Inf", w.Code, w.Body)
	}
}
