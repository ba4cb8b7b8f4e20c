package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
	srv, e := newTestServer(t)
	resp, body := postQuery(t, srv, `{"query": "E(x,y), E(y,z), E(x,z)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %v", resp.StatusCode, body)
	}
	if body["mode"] != "count" {
		t.Fatalf("mode = %v", body["mode"])
	}
	want := seqCount(t, e.DB(), "E(x,y), E(y,z), E(x,z)")
	if int64(body["count"].(float64)) != want {
		t.Fatalf("count = %v, want %d", body["count"], want)
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

func TestHTTPStreamNDJSON(t *testing.T) {
	srv, e := newTestServer(t)
	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"query": "E(x,y), E(y,z), E(x,z)", "mode": "stream"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	dec := json.NewDecoder(resp.Body)
	var header struct {
		Order []string `json:"order"`
	}
	if err := dec.Decode(&header); err != nil || len(header.Order) != 3 {
		t.Fatalf("header = %+v, %v", header, err)
	}
	var rows int64
	var summary map[string]any
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		switch {
		case line["row"] != nil:
			if len(line["row"].([]any)) != len(header.Order) {
				t.Fatalf("row %v misaligned with order %v", line["row"], header.Order)
			}
			rows++
		case line["summary"] != nil:
			summary = line["summary"].(map[string]any)
		case line["error"] != nil:
			t.Fatalf("stream error: %v", line["error"])
		}
	}
	want := seqCount(t, e.DB(), "E(x,y), E(y,z), E(x,z)")
	if rows != want {
		t.Fatalf("streamed %d rows, want %d", rows, want)
	}
	if summary == nil || int64(summary["count"].(float64)) != want || summary["truncated"] != false {
		t.Fatalf("summary = %v, want count %d", summary, want)
	}

	// A limit stops the stream early and flags truncation.
	lresp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"query": "E(x,y), E(y,z), E(x,z)", "mode": "stream", "limit": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	ldec := json.NewDecoder(lresp.Body)
	var lrows int64
	var lsummary map[string]any
	for ldec.More() {
		var line map[string]any
		if err := ldec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line["row"] != nil {
			lrows++
		}
		if line["summary"] != nil {
			lsummary = line["summary"].(map[string]any)
		}
	}
	if lrows != 2 || lsummary == nil || lsummary["truncated"] != true {
		t.Fatalf("limited stream: %d rows, summary %v", lrows, lsummary)
	}

	// Compile failures surface as an ordinary JSON error status, not a
	// broken stream.
	eresp, ebody := postQuery(t, srv, `{"query": "Z(x,y)", "mode": "stream"}`)
	if eresp.StatusCode != http.StatusBadRequest || ebody["error"] == nil {
		t.Fatalf("stream compile error: status %d body %v", eresp.StatusCode, ebody)
	}

	// Streaming a prepared statement honors the prepare-time default
	// limit when the stream request sets none.
	presp, err := http.Post(srv.URL+"/prepare", "application/json",
		strings.NewReader(`{"query": "E(x,y), E(y,z)", "limit": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	var prep map[string]any
	if err := json.NewDecoder(presp.Body).Decode(&prep); err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"stmt": "`+prep["stmt"].(string)+`", "mode": "stream"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sdec := json.NewDecoder(sresp.Body)
	var srows int64
	var ssummary map[string]any
	for sdec.More() {
		var line map[string]any
		if err := sdec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line["row"] != nil {
			srows++
		}
		if line["summary"] != nil {
			ssummary = line["summary"].(map[string]any)
		}
	}
	if srows != 4 || ssummary == nil || ssummary["truncated"] != true {
		t.Fatalf("prepared-default limit ignored by stream: %d rows, summary %v", srows, ssummary)
	}
}

func TestHTTPUpdateRoundTrip(t *testing.T) {
	srv, e := newTestServer(t)
	// Warm, mutate over the wire, and re-query: the count must move and
	// match a fresh sequential run at the new version.
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

	_, body := postQuery(t, srv, `{"query": "E(x,y), E(y,x)"}`)
	want := seqCount(t, e.DB(), "E(x,y), E(y,x)")
	if int64(body["count"].(float64)) != want {
		t.Fatalf("post-update count = %v, fresh run says %d", body["count"], want)
	}

	// Errors come back as 4xx JSON.
	for _, bad := range []string{
		`{"relation": "R", "inserts": [[1,2]]}`,
		`{"relation": "E", "inserts": [[1]]}`,
		`{"relation": "E", "bogus": 1}`,
	} {
		resp, err := http.Post(srv.URL+"/update", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	getResp, err := http.Get(srv.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d, want 405", getResp.StatusCode)
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
