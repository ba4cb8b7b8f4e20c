package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/server"
)

// socketHarness is the wire-level fleet: every shard is a real HTTP
// daemon handler behind a test server, and the coordinator talks to
// them through cluster.Client.
type socketHarness struct {
	shardSrvs []*httptest.Server
	coord     *Coordinator
}

func newSocketHarness(t *testing.T, db *relation.DB, n int) *socketHarness {
	t.Helper()
	dbs, _, err := Partition(db, n)
	if err != nil {
		t.Fatal(err)
	}
	h := &socketHarness{}
	addrs := make([]string, n)
	for i, pdb := range dbs {
		srv := httptest.NewServer(server.NewHandler(server.NewEngine(pdb, server.Config{})))
		t.Cleanup(srv.Close)
		h.shardSrvs = append(h.shardSrvs, srv)
		addrs[i] = srv.URL
	}
	h.coord, err = NewHTTP(addrs, ClientConfig{Timeout: 10 * time.Second}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHTTPClusterUpdateAndStats routes a delta over the sockets and
// checks the merged stats view parses and folds.
func TestHTTPClusterUpdateAndStats(t *testing.T) {
	h := NewHandler(newSocketHarness(t, latticeDB(), 2).coord)
	out, err := serveJSON(h, "/update", server.UpdateRequest{Relation: "E", Inserts: [][]int64{{900, 901}, {901, 902}}})
	var ur UpdateResponse
	if err != nil || json.Unmarshal(out, &ur) != nil || !ur.Applied {
		t.Fatalf("update: %s (%v)", out, err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Shards != 2 || len(st.PerShard) != 2 || st.Updates != 1 {
		t.Fatalf("stats: %s (%v), want 2 shards and 1 update", rec.Body, err)
	}
}

// TestHTTPClusterShardFailure502 kills one shard daemon mid-fleet and
// requires the coordinator to answer a typed 502 naming it — and 400
// (not 502) for requests the shards themselves reject. An unshardable
// query's 400 is TestHTTPClusterDifferential's.
func TestHTTPClusterShardFailure502(t *testing.T) {
	h := newSocketHarness(t, latticeDB(), 2)
	coord := NewHandler(h.coord)

	// A shard-rejected request passes its 4xx through.
	_, err := serveJSON(coord, "/query", server.Request{Query: "E(x,y), E(x,z)", CacheEviction: "nope"})
	if hs := (*httpStatus)(nil); !errors.As(err, &hs) || hs.code != http.StatusBadRequest || !strings.Contains(hs.body, "shard answered 400") {
		t.Fatalf("bad cache_eviction: %v, want the shard's 400", err)
	}

	killed := h.shardSrvs[1]
	killed.Close()
	_, err = serveJSON(coord, "/query", server.Request{Query: "E(x,y), E(x,z)"})
	if hs := (*httpStatus)(nil); !errors.As(err, &hs) || hs.code != http.StatusBadGateway || !strings.Contains(hs.body, killed.URL) {
		t.Fatalf("dead shard: %v, want a 502 naming %s", err, killed.URL)
	}

	// The fleet health reflects the outage.
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead shard: %d, want 503", rec.Code)
	}
}

// TestHTTPClusterAdmissionGate: a shard still booting behind its
// readiness gate keeps the coordinator unready (503) and WaitReady
// blocked; once the gate opens, admission follows.
func TestHTTPClusterAdmissionGate(t *testing.T) {
	db := latticeDB()
	dbs, _, err := Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	gate := server.NewGate()
	booting := httptest.NewServer(gate)
	defer booting.Close()
	ready := httptest.NewServer(server.NewHandler(server.NewEngine(dbs[1], server.Config{})))
	defer ready.Close()

	coord, err := NewHTTP([]string{booting.URL, ready.URL}, ClientConfig{Timeout: time.Second, retries: -1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	health := func() int {
		rec := httptest.NewRecorder()
		NewHandler(coord).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}
	if code := health(); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with booting shard: %d, want 503", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	if err := coord.WaitReady(ctx); err == nil {
		t.Fatal("WaitReady admitted a booting fleet")
	}
	cancel()

	// Boot finishes: the gate swaps the real handler in.
	gate.Set(server.NewHandler(server.NewEngine(dbs[0], server.Config{})))
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady after gate open: %v", err)
	}
	if code := health(); code != http.StatusOK {
		t.Fatalf("healthz after gate open: %d, want 200", code)
	}
}

// faultyShard is shard 0 of a conformance fleet: a healthy shard until a
// table row arms it — movingShard's updates behind the coordinator's
// back (two exhaust the retry: the 409), or an error its next Do answers
// with (a shard's own 4xx, a dead shard).
type faultyShard struct {
	*movingShard
	fail error
}

func (f *faultyShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	if err := f.fail; err != nil {
		f.fail = nil
		return nil, err
	}
	return f.movingShard.Do(ctx, req)
}

// fakeErrors is what the fake backend answers for a query text or an
// update relation: each typed error the status table knows.
var fakeErrors = map[string]error{
	"deadline":    fmt.Errorf("fake: %w", context.DeadlineExceeded),
	"cancelled":   &ShardError{Shard: "s", Op: "query", Err: context.Canceled},
	"read-only":   fmt.Errorf("%w (fake)", server.ErrReadOnly),
	"moved":       fmt.Errorf("%w: fake", ErrSnapshotMoved),
	"unshardable": fmt.Errorf("%w: fake", ErrNotShardable),
	"shard-4xx":   &ShardError{Shard: "s", Op: "query", Err: &StatusError{Status: 422, Msg: "fake"}},
	"shard-5xx":   &ShardError{Shard: "s", Op: "query", Err: &StatusError{Status: 503, Msg: "fake"}},
	"shard-dead":  &ShardError{Shard: "s", Op: "query", Err: errors.New("connection refused")},
}

// fakeBackend serves the shared handler with canned outcomes, so every
// row of the status table is reachable without staging its fault.
func fakeBackend() http.Handler {
	return server.Backend{
		Query: func(_ context.Context, req server.Request) (*server.Response, error) {
			if req.Mode == "drop" || req.Semiring == "nope" {
				return nil, errors.New("fake: unknown mode or semiring")
			}
			return &server.Response{Mode: "count"}, fakeErrors[req.Query]
		},
		Stream: func(_ context.Context, req server.Request, header func([]string), _ func([]int64) bool) (server.StreamSummary, error) {
			return server.StreamSummary{}, fakeErrors[req.Query]
		},
		Update: func(_ context.Context, req server.UpdateRequest) (any, error) {
			return &server.UpdateResult{Relation: req.Relation}, fakeErrors[req.Relation]
		},
		Stats:  func(context.Context) (any, error) { return struct{}{}, nil },
		Health: func(context.Context) (int, any) { return http.StatusOK, map[string]any{"status": "ok"} },
		Status: errStatus,
	}.Handler()
}

// TestHTTPSurfaceConformance runs one request table against the
// backends of the one HTTP surface — an engine, a coordinator over
// in-process shards of the same data, a coordinator over the same shards
// behind sockets, and a fake answering each typed error — and requires
// the identical error answer from each: status, Content-Type, Allow
// header and the {"error": "..."} body. A row names the backends it
// applies to (e, c, f; c is both coordinators — what a fleet is made of
// must not show in a status); the fault rows are the coordinators' and
// the fake's, since one engine has no shard to lose.
func TestHTTPSurfaceConformance(t *testing.T) {
	db := dataset.CliqueUnion(500, 280, 18, 1.6, 9).DB(false)
	dbs, routing, err := Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The engine is persistent and compacts on every update, so each
	// update rewrites its snapshot; with the data directory gone from
	// under it, the read-only row's update fails to persist and flips
	// it, after every other row ran.
	dataDir := t.TempDir()
	engine, _, err := server.OpenEngine(server.Config{DataDir: dataDir, CompactFraction: -1},
		func() (*relation.DB, error) { return db, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if err := os.RemoveAll(dataDir); err != nil {
		t.Fatal(err)
	}
	// fleet builds a coordinator over fresh engines on the two partitions,
	// reached in process or through their own HTTP handlers.
	fleet := func(socket bool) (http.Handler, *faultyShard) {
		shards := make([]Shard, 2)
		faulty := &faultyShard{movingShard: newMovingShard(dbs[0], 2)}
		shards[1] = newEngineShard("shard-1", server.NewEngine(dbs[1], server.Config{}))
		if socket {
			for i, e := range []*server.Engine{faulty.engine, shards[1].(*engineShard).e} {
				srv := httptest.NewServer(server.NewHandler(e))
				t.Cleanup(srv.Close)
				shards[i] = NewClient(srv.URL, ClientConfig{Timeout: 10 * time.Second})
			}
			faulty.Shard = shards[0]
		}
		shards[0] = faulty
		coord, err := New(routing, shards, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return NewHandler(coord), faulty
	}
	inproc, inprocFaulty := fleet(false)
	socket, socketFaulty := fleet(true)
	backends := []struct {
		key     byte
		name    string
		handler http.Handler
		faulty  *faultyShard
	}{
		{'e', "engine", server.NewHandler(engine), nil},
		{'c', "coordinator", inproc, inprocFaulty},
		{'c', "socket coordinator", socket, socketFaulty},
		{'f', "fake", fakeBackend(), nil},
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const star = "E(x,a), E(x,b), E(x,c), E(x,d), E(x,e)" // ~10^8 rows: outlives any 1 ms budget
	query := func(q, rest string) string { return fmt.Sprintf(`{"query": %q%s}`, q, rest) }
	type row struct {
		name, on     string
		method, path string
		body         string
		status       int
		allow        string
		ctx          context.Context
		arm          func(f *faultyShard)
	}
	rows := []row{
		// Every route × a wrong verb.
		{name: "GET /query", on: "ecf", method: "GET", path: "/query", status: 405, allow: "POST"},
		{name: "DELETE /query", on: "ecf", method: "DELETE", path: "/query", status: 405, allow: "POST"},
		{name: "GET /update", on: "ecf", method: "GET", path: "/update", status: 405, allow: "POST"},
		{name: "POST /stats", on: "ecf", method: "POST", path: "/stats", body: "{}", status: 405, allow: "GET"},
		{name: "PUT /healthz", on: "ecf", method: "PUT", path: "/healthz", status: 405, allow: "GET"},
		{name: "GET /prepare", on: "e", method: "GET", path: "/prepare", status: 405, allow: "POST"},
		{name: "POST /prepare/{id}", on: "e", method: "POST", path: "/prepare/s1", body: "{}", status: 405, allow: "DELETE"},
		// Malformed bodies die in the shared decoder.
		{name: "bad json", on: "ecf", method: "POST", path: "/query", body: `{"query":`, status: 400},
		{name: "unknown field", on: "ecf", method: "POST", path: "/query", body: `{"query": "E(x,y)", "bogus": 1}`, status: 400},
		{name: "unknown update field", on: "ecf", method: "POST", path: "/update", body: `{"relation": "E", "bogus": 1}`, status: 400},
		{name: "oversize body", on: "ecf", method: "POST", path: "/query", body: query(strings.Repeat("E(x,y), ", 1<<17)+"E(x,y)", ""), status: 400},
		{name: "second JSON value", on: "ecf", method: "POST", path: "/query", body: `{"query":"E(x,y)"}{"mode":"eval"}`, status: 400},
		{name: "trailing garbage", on: "ecf", method: "POST", path: "/query", body: `{"query":"E(x,y)"} x`, status: 400},
		{name: "trailing brace", on: "ecf", method: "POST", path: "/update", body: `{"relation":"E"}}`, status: 400},
		// Caller errors the backend itself finds.
		{name: "parse error", on: "ec", method: "POST", path: "/query", body: `{"query": "nope("}`, status: 400},
		{name: "bad mode", on: "ecf", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", `, "mode": "drop"`), status: 400},
		{name: "bad semiring", on: "ecf", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", `, "mode": "aggregate", "semiring": "nope"`), status: 400},
		{name: "unknown relation", on: "ec", method: "POST", path: "/query", body: query("Z(x,y), Z(x,z)", ""), status: 400},
		{name: "stream of unknown relation", on: "ec", method: "POST", path: "/query", body: query("Z(x,y), Z(x,z)", `, "mode": "stream"`), status: 400},
		{name: "bad cache_eviction", on: "ec", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", `, "cache_eviction": "nope"`), status: 400},
		{name: "update of unknown relation", on: "ec", method: "POST", path: "/update", body: `{"relation": "Z", "inserts": [[1, 2]]}`, status: 400},
		{name: "if_versions at a coordinator", on: "c", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", `, "if_versions": {"E": 0}`), status: 400},
		{name: "unshardable", on: "c", method: "POST", path: "/query", body: query("E(x,y), E(y,z), E(x,z)", ""), status: 400},
		{name: "unshardable", on: "f", method: "POST", path: "/query", body: query("unshardable", ""), status: 400},
		// Context outcomes, buffered and before a stream's first line.
		{name: "timeout_ms", on: "ec", method: "POST", path: "/query", body: query(star, `, "mode": "eval", "no_cache": true, "timeout_ms": 1`), status: 504},
		{name: "timeout_ms", on: "f", method: "POST", path: "/query", body: query("deadline", ""), status: 504},
		{name: "stream deadline", on: "f", method: "POST", path: "/query", body: query("deadline", `, "mode": "stream"`), status: 504},
		{name: "cancelled", on: "ec", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", ""), status: 499, ctx: cancelled},
		{name: "cancelled stream", on: "c", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", `, "mode": "stream"`), status: 499, ctx: cancelled},
		{name: "cancelled", on: "f", method: "POST", path: "/query", body: query("cancelled", ""), status: 499},
		// The coordinator's own statuses.
		{name: "snapshot moved", on: "c", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", ""), status: 409,
			arm: func(f *faultyShard) { f.moves = 2 }},
		{name: "snapshot moved stream", on: "c", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", `, "mode": "stream"`), status: 409,
			arm: func(f *faultyShard) { f.moves = 2 }},
		{name: "snapshot moved", on: "f", method: "POST", path: "/query", body: query("moved", ""), status: 409},
		{name: "shard 4xx passes through", on: "c", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", ""), status: 422,
			arm: func(f *faultyShard) { f.fail = &StatusError{Status: 422, Msg: "shard says no"} }},
		{name: "shard 4xx passes through", on: "f", method: "POST", path: "/query", body: query("shard-4xx", ""), status: 422},
		{name: "shard 5xx", on: "c", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", ""), status: 502,
			arm: func(f *faultyShard) { f.fail = &StatusError{Status: 503, Msg: "shard is booting"} }},
		{name: "shard 5xx", on: "f", method: "POST", path: "/query", body: query("shard-5xx", ""), status: 502},
		{name: "dead shard", on: "c", method: "POST", path: "/query", body: query("E(x,y), E(x,z)", ""), status: 502,
			arm: func(f *faultyShard) { f.fail = errors.New("connection refused") }},
		{name: "dead shard", on: "f", method: "POST", path: "/query", body: query("shard-dead", ""), status: 502},
		// Read-only: the engine's own degraded mode (sticky, so last).
		{name: "read-only", on: "e", method: "POST", path: "/update", body: `{"relation": "E", "inserts": [[100001, 100002]]}`, status: 503},
		{name: "read-only", on: "f", method: "POST", path: "/update", body: `{"relation": "read-only"}`, status: 503},
	}
	for _, r := range rows {
		for _, b := range backends {
			if strings.IndexByte(r.on, b.key) < 0 {
				continue
			}
			if r.arm != nil {
				r.arm(b.faulty)
			}
			req := httptest.NewRequest(r.method, r.path, strings.NewReader(r.body))
			if r.ctx != nil {
				req = req.WithContext(r.ctx)
			}
			rec := httptest.NewRecorder()
			b.handler.ServeHTTP(rec, req)
			at := fmt.Sprintf("%s on %s", r.name, b.name)
			if rec.Code != r.status {
				t.Errorf("%s: status %d, want %d (%s)", at, rec.Code, r.status, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q, want application/json", at, ct)
			}
			if allow := rec.Header().Get("Allow"); allow != r.allow {
				t.Errorf("%s: Allow %q, want %q", at, allow, r.allow)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body) != 1 || body["error"] == "" {
				t.Errorf("%s: body %s, want exactly {\"error\": \"...\"}", at, rec.Body)
			}
		}
	}
}
