package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	e := NewEngine(testDB(), Config{Workers: 2})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	return srv, e
}

func postQuery(t *testing.T, srv *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	return resp, decoded
}

func TestHTTPQueryRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := postQuery(t, srv, `{"query": "E(x,y), E(y,z), E(x,z)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %v", resp.StatusCode, body)
	}
	if body["mode"] != "count" {
		t.Fatalf("mode = %v", body["mode"])
	}
	if _, ok := body["stats"].(map[string]any); !ok {
		t.Fatalf("response missing stats: %v", body)
	}

	// The block length is not a request field: a body that names it is
	// refused by the unknown-field check, never silently ignored.
	resp, body = postQuery(t, srv, `{"query": "E(x,y), E(y,z), E(x,z)", "batch_size": 256}`)
	if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, `unknown field "batch_size"`) {
		t.Fatalf("batch_size body: status %d, body %v, want 400 unknown field", resp.StatusCode, body)
	}
}

// TestHTTPOversizedQueryRefused posts a 3 200-atom body over 1 601
// variables, 47 KB and far inside the request-size limit, that the
// greedy planner would chew on for minutes: the parser's size bound
// answers 400 before any planning starts.
func TestHTTPOversizedQueryRefused(t *testing.T) {
	srv, _ := newTestServer(t)
	atoms := make([]string, 3200)
	for i := range atoms {
		j := i / 2
		if i%2 == 0 {
			atoms[i] = fmt.Sprintf("E(x%d,x%d)", j, j+1)
		} else {
			atoms[i] = fmt.Sprintf("E(x%d,x%d)", j+1, j)
		}
	}
	req, err := json.Marshal(map[string]string{"query": strings.Join(atoms, ", ")})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, body := postQuery(t, srv, string(req))
	if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "more than 64 atoms") {
		t.Fatalf("status %d, body %v, want 400 naming the atom bound", resp.StatusCode, body)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("refusal took %v", took)
	}
}

func TestHTTPQueryEval(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := postQuery(t, srv, `{"query": "E(x,y), E(y,z)", "mode": "eval", "limit": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %v", resp.StatusCode, body)
	}
	tuples, ok := body["tuples"].([]any)
	if !ok || len(tuples) != 2 {
		t.Fatalf("tuples = %v, want 2", body["tuples"])
	}
	if body["truncated"] != true {
		t.Fatalf("truncated = %v, want true", body["truncated"])
	}
}

// The error surface — malformed bodies, wrong verbs, typed failures and
// their statuses — is pinned for this handler, the coordinator's and a
// fake backend's by one table: internal/cluster's
// TestHTTPSurfaceConformance.

func TestHTTPStatsAndHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	if _, body := postQuery(t, srv, `{"query": "E(x,y), E(y,x)"}`); body["error"] != nil {
		t.Fatalf("seed query failed: %v", body["error"])
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s EngineStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Queries != 1 {
		t.Fatalf("stats queries = %d, want 1", s.Queries)
	}
	if s.Registry.Builds == 0 {
		t.Fatal("stats report no trie builds after a query")
	}
	if len(s.Relations) != 1 {
		t.Fatalf("relations = %+v", s.Relations)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz = %v", h)
	}
}

func TestHTTPPrepareAndExecuteByID(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/prepare", "application/json",
		strings.NewReader(`{"query": "E(x,y), E(y,z), E(x,z)", "workers": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var prep map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&prep); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: status %d body %v", resp.StatusCode, prep)
	}
	id, _ := prep["stmt"].(string)
	if id == "" || prep["query"] == "" {
		t.Fatalf("prepare response %v", prep)
	}

	// Execute by id: the prepare-time compile makes even the first
	// execution a plan-cache hit.
	hresp, body := postQuery(t, srv, `{"stmt": "`+id+`"}`)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("by-id query: status %d body %v", hresp.StatusCode, body)
	}
	stats, _ := body["stats"].(map[string]any)
	if stats == nil || stats["plan_cached"] != true {
		t.Fatalf("by-id execution not plan-cached: %v", body)
	}

	// The hit/miss history shows up in /stats.
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var s EngineStats
	if err := json.NewDecoder(sresp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Plans.Hits == 0 || s.Plans.Misses == 0 || s.Prepared != 1 {
		t.Fatalf("stats plans = %+v prepared = %d, want hits+misses and 1 stmt", s.Plans, s.Prepared)
	}

	// Close over HTTP; executing the closed id fails.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/prepare/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /prepare/%s: status %d", id, dresp.StatusCode)
	}
	gone, body := postQuery(t, srv, `{"stmt": "`+id+`"}`)
	if gone.StatusCode != http.StatusBadRequest {
		t.Fatalf("closed stmt: status %d body %v", gone.StatusCode, body)
	}
	req2, _ := http.NewRequest(http.MethodDelete, srv.URL+"/prepare/nope", nil)
	nresp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown stmt: status %d, want 404", nresp.StatusCode)
	}
}

// TestHTTPStreamNDJSON pins the stream's transport: the NDJSON content
// type, a header naming the order, rows aligned with it and a summary
// trailer. What the rows are, at every limit and through prepared
// defaults, is TestServiceLattice's (internal/cluster).
func TestHTTPStreamNDJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"query": "E(x,y), E(y,z), E(x,z)", "mode": "stream"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("stream: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	var order []string
	rows := 0
	sum, err := ReadStream(resp.Body, func(o []string) { order = o }, func(mu []int64) bool {
		if len(mu) != len(order) {
			t.Fatalf("row %v misaligned with order %v", mu, order)
		}
		rows++
		return true
	})
	if err != nil || len(order) != 3 || rows == 0 || sum.Count != int64(rows) || sum.Truncated {
		t.Fatalf("stream: order %v, %d rows, summary %+v, %v", order, rows, sum, err)
	}
}

func TestHTTPUpdateRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	if _, body := postQuery(t, srv, `{"query": "E(x,y), E(y,x)"}`); body["error"] != nil {
		t.Fatalf("warm query failed: %v", body["error"])
	}

	resp, err := http.Post(srv.URL+"/update", "application/json",
		strings.NewReader(`{"relation": "E", "inserts": [[9001, 9002], [9002, 9001]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || res["applied"] != true || res["version"].(float64) != 1 {
		t.Fatalf("update response: status %d body %v", resp.StatusCode, res)
	}

	// A tuple of the wrong arity is a 400; the other refusals are
	// TestHTTPSurfaceConformance's (internal/cluster), and the answers
	// after updates TestServiceLattice's.
	bad, err := http.Post(srv.URL+"/update", "application/json", strings.NewReader(`{"relation": "E", "inserts": [[1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong arity: status %d, want 400", bad.StatusCode)
	}

	// /stats surfaces the update and version accounting.
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["updates"].(float64) != 1 || stats["live_versions"] == nil {
		t.Fatalf("stats missing update accounting: %v", stats)
	}
	reg, ok := stats["registry"].(map[string]any)
	if !ok || reg["bytes"] == nil || reg["evictions"] == nil || reg["patches"] == nil {
		t.Fatalf("stats registry lacks residency fields: %v", stats["registry"])
	}
}
