package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
)

// FuzzQueryBody posts arbitrary bytes to POST /query on a small engine:
// a request body is untrusted input. No body may panic the handler. One
// that does not decode as a Request (malformed JSON, an unknown field
// such as the retired "stream_workers", "no_order_cost" or "orderer",
// trailing bytes) gets decodeInto's 400. One that does gets a typed answer: a
// Response, an NDJSON stream that ends in its summary or error line, or
// an {"error": ...} document under a status of the error table. An eval
// Response must agree with two more requests on the engine: a count of
// the same query, and a no_cache stream of it with the limit cleared,
// whose prefix its tuples are (checkEval).
func FuzzQueryBody(f *testing.F) {
	e := NewEngine(dataset.ErdosRenyi(12, 0.3, 5).DB(false), Config{Workers: 2})
	stmt, err := e.Prepare(Request{Query: "E(x,y), E(y,z)", Mode: "eval"})
	if err != nil {
		f.Fatal(err)
	}
	h := NewHandler(e)
	retired := []string{
		`{"query": "E(x,y), E(y,z)", "mode": "stream", "stream_workers": 2}`,
		`{"query": "E(x,y), E(y,z)", "no_order_cost": true}`,
		`{"query": "E(x,y), E(y,z)", "orderer": "greedy"}`,
	}
	for _, body := range retired {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			f.Fatalf("%s answered %d, want the unknown-field 400: %s", body, rec.Code, rec.Body)
		}
		f.Add([]byte(body))
	}
	for _, seed := range []string{
		`{"query": "E(x,y), E(y,z), E(x,z)"}`,
		`{"query": "E(x,y), E(y,z), E(z,w)", "mode": "eval", "limit": 3, "workers": 2, "cache_capacity": 2, "cache_eviction": "lru"}`,
		`{"query": "E(x,y), E(y,z), E(z,w)", "mode": "stream", "limit": 5, "workers": 8, "cache_support": 2}`,
		`{"query": "E(x,y), E(y,z)", "mode": "aggregate", "semiring": "min", "no_cache": true}`,
		`{"query": "E(3,y), E(y,y)", "timeout_ms": 1}`,
		`{"stmt": "` + stmt.ID() + `", "limit": -1, "mode": "stream"}`,
		`{"stmt": "` + stmt.ID() + `", "limit": 7, "workers": 8, "cache_support": 2}`,
		`{"query": "E(x,y), E(y,z), E(z,x)", "mode": "eval", "workers": 1}`,
		`{"stmt": "s999"}`,
		`{"query": "E(x,y)", "if_versions": {"E": 0}}`,
		`{"query": "E(x,y)", "if_versions": {"E": 7, "F": 1}}`,
		`{"query": "E(x,y)"} {}`,
		`{"query": "E(x,"}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
		out := rec.Body.Bytes()

		var req Request
		if !decodeInto(httptest.NewRecorder(), httptest.NewRequest("POST", "/query", bytes.NewReader(body)), maxRequestBody, &req) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d, want 400: %s", rec.Code, out)
			}
			errorDoc(t, out)
			return
		}
		switch rec.Code {
		case http.StatusOK:
			if req.Mode == "stream" {
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var last streamLine
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || (last.Summary == nil && last.Error == nil) {
					t.Fatalf("stream ends in neither a summary nor an error line: %s", out)
				}
				if _, err := ReadStream(bytes.NewReader(out), nil, func([]int64) bool { return true }); (err == nil) != (last.Summary != nil) {
					t.Fatalf("stream reader disagrees with the trailer (err %v): %s", err, out)
				}
				return
			}
			var resp Response
			if err := json.Unmarshal(out, &resp); err != nil || resp.Mode == "" {
				t.Fatalf("200 without a Response (%v): %s", err, out)
			}
			if resp.Mode == "eval" {
				checkEval(t, e, req, &resp)
			}
		case http.StatusBadRequest, http.StatusGatewayTimeout:
			errorDoc(t, out)
		case http.StatusConflict:
			if doc := errorDoc(t, out); doc["versions"] == nil {
				t.Fatalf("409 without the snapshot's versions: %s", out)
			}
		default:
			t.Fatalf("status %d outside the error table: %s", rec.Code, out)
		}
	})
}

// checkEval holds an eval answer to the engine's own count of req's
// query and to the no_cache stream of it with the limit cleared: the
// count is the count's, the tuples are the stream's first min(limit,
// count) rows, and truncated says whether the count passed the limit.
// The fuzz engine's statement and config set no limit, so the effective
// one is the request's or DefaultMaxTuples. Results past 1<<16 rows are
// held to the count alone, so that no input makes the stream long.
func checkEval(t *testing.T, e *Engine, req Request, resp *Response) {
	t.Helper()
	req.TimeoutMS = 0
	cnt := req
	cnt.Mode = "count"
	want, err := e.Do(cnt)
	if err != nil {
		t.Fatalf("count of an answered eval failed: %v", err)
	}
	limit := int64(DefaultMaxTuples)
	if req.Limit > 0 {
		limit = int64(req.Limit)
	}
	if resp.Count != want.Count || resp.Truncated != (want.Count > limit) || int64(len(resp.Tuples)) != min(limit, want.Count) {
		t.Fatalf("eval answered count %d truncated %v with %d tuples; the count is %d, the limit %d",
			resp.Count, resp.Truncated, len(resp.Tuples), want.Count, limit)
	}
	if want.Count > 1<<16 {
		return
	}
	str := req
	str.Mode, str.NoCache, str.Limit = "stream", true, -1
	var rows [][]int64
	if _, err := e.StreamCtx(context.Background(), str, nil, func(mu []int64) bool {
		rows = append(rows, slices.Clone(mu))
		return true
	}); err != nil {
		t.Fatalf("no_cache stream of an answered eval failed: %v", err)
	}
	if int64(len(rows)) != want.Count {
		t.Fatalf("no_cache stream has %d rows, the count %d", len(rows), want.Count)
	}
	for i, tu := range resp.Tuples {
		if !slices.Equal(tu, rows[i]) {
			t.Fatalf("eval tuple %d is %v, the stream's row %v", i, tu, rows[i])
		}
	}
}

// FuzzPrepareBody posts arbitrary bytes to POST /prepare, the other
// handler that decodes a Request from an untrusted body. No body may
// panic it. One that does not decode gets decodeInto's 400 — among them
// every body carrying the retired "orderer" field, whatever strategy it
// names (checked on seeds up front). Otherwise the answer is a typed error document, or a 200 naming the
// new statement — which is then closed through DELETE /prepare/{id},
// so the registry stays empty however long the fuzzer runs.
func FuzzPrepareBody(f *testing.F) {
	e := NewEngine(dataset.ErdosRenyi(12, 0.3, 5).DB(false), Config{Workers: 2})
	h := NewHandler(e)
	prepare := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/prepare", bytes.NewReader(body)))
		return rec
	}
	// closeStmt closes the statement a 200 answer out names.
	closeStmt := func(t testing.TB, out []byte) {
		var ans struct{ Stmt, Query string }
		if err := json.Unmarshal(out, &ans); err != nil || ans.Stmt == "" || ans.Query == "" {
			t.Fatalf("200 without a statement (%v): %s", err, out)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/prepare/"+ans.Stmt, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("closing %s answered %d: %s", ans.Stmt, rec.Code, rec.Body)
		}
	}
	for _, orderer := range []string{"", "greedy", "cost", "adaptive", "nosuch"} {
		body := []byte(`{"query": "E(x,y), E(y,z), E(z,w)", "mode": "eval", "orderer": "` + orderer + `"}`)
		if rec := prepare(body); rec.Code != http.StatusBadRequest {
			f.Fatalf("%s answered %d, want the unknown-field 400: %s", body, rec.Code, rec.Body)
		}
		f.Add(body)
	}
	for _, seed := range []string{
		`{"query": "E(x,y), E(y,z), E(x,z)", "workers": 2, "cache_capacity": 2, "cache_eviction": "lru"}`,
		`{"query": "E(3,y), E(y,y)", "mode": "aggregate", "semiring": "min", "no_cache": true}`,
		`{"query": "E(x,y)", "mode": "stream"}`,
		`{"query": "E(x,y)", "semiring": "max"}`,
		`{"query": "E(x,y)", "if_versions": {"E": 7}}`,
		`{"query": "E(x,y)", "timeout_ms": 1}`,
		`{"stmt": "s1"}`,
		`{"query": "E(x,y)", "no_order_cost": true}`,
		`{"query": "E(x,"}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := prepare(body)
		out := rec.Body.Bytes()

		var req Request
		if !decodeInto(httptest.NewRecorder(), httptest.NewRequest("POST", "/prepare", bytes.NewReader(body)), maxRequestBody, &req) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d, want 400: %s", rec.Code, out)
			}
			errorDoc(t, out)
			return
		}
		switch rec.Code {
		case http.StatusOK:
			closeStmt(t, out)
		case http.StatusBadRequest, http.StatusGatewayTimeout:
			errorDoc(t, out)
		case http.StatusConflict:
			if doc := errorDoc(t, out); doc["versions"] == nil {
				t.Fatalf("409 without the snapshot's versions: %s", out)
			}
		default:
			t.Fatalf("status %d outside the error table: %s", rec.Code, out)
		}
	})
}

// FuzzUpdateBody posts arbitrary bytes to POST /update on a small
// engine, the one other handler that decodes an untrusted body. No body
// may panic it. One that does not decode as an UpdateRequest gets
// decodeInto's 400; one that does gets a typed answer: the installed
// version's UpdateResult, or an {"error": ...} 400 (an unknown
// relation, a tuple of the wrong arity). After an accepted body the
// engine's triangle count is internal/naive's over its current
// snapshot. The engine starts over once its relation has grown past a
// few hundred tuples, so the naive count stays cheap.
func FuzzUpdateBody(f *testing.F) {
	const triangle = "E(x,y), E(y,z), E(x,z)"
	tri := cq.MustParse(triangle)
	var (
		e *Engine
		h http.Handler
	)
	reset := func(tb testing.TB) {
		e = NewEngine(dataset.ErdosRenyi(12, 0.3, 5).DB(false), Config{Workers: 2})
		h = NewHandler(e)
		if _, err := e.Do(Request{Query: triangle}); err != nil {
			tb.Fatal(err)
		}
	}
	reset(f)
	for _, seed := range []string{
		`{"relation": "E", "inserts": [[1, 2], [2, 3], [3, 1]]}`,
		`{"relation": "E", "deletes": [[1, 2]], "inserts": [[1, 2]]}`,
		`{"relation": "E", "inserts": [[0, 1], [1, 0], [0, 2], [2, 0], [1, 2], [2, 1], [0, 3], [3, 0], [1, 3], [3, 1], [2, 3], [3, 2], [4, 5], [5, 4], [4, 6], [6, 4], [5, 6], [6, 5]]}`,
		`{"relation": "E", "deletes": [[0, 1], [1, 0], [2, 3]]}`,
		`{"relation": "E", "inserts": [[-9223372036854775808, 9223372036854775807]]}`,
		`{"relation": "E", "inserts": [[1, 2, 3]]}`,
		`{"relation": "F", "inserts": [[1, 2]]}`,
		`{"relation": "E"}`,
		`{}`,
		`{"relation": "E", "upserts": [[1, 2]]}`,
		`{"relation": "E", "inserts": [[1, 2]]} {}`,
		`{"relation": "E", "inserts": [[1.5, 2]]}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/update", bytes.NewReader(body)))
		out := rec.Body.Bytes()

		var req UpdateRequest
		if !decodeInto(httptest.NewRecorder(), httptest.NewRequest("POST", "/update", bytes.NewReader(body)), maxUpdateBody, &req) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d, want 400: %s", rec.Code, out)
			}
			errorDoc(t, out)
			return
		}
		switch rec.Code {
		case http.StatusOK:
			var res UpdateResult
			if err := json.Unmarshal(out, &res); err != nil || res.Relation != req.Relation {
				t.Fatalf("200 without an UpdateResult (%v): %s", err, out)
			}
			db := e.DB()
			if rel, err := db.Get("E"); err != nil || rel.Len() != res.Tuples {
				t.Fatalf("update answered %d tuples, the snapshot holds %v (%v)", res.Tuples, rel, err)
			}
			resp, err := e.Do(Request{Query: triangle})
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Count(tri, db)
			if err != nil || resp.Count != want {
				t.Fatalf("after %s: the engine counts %d triangles, naive %d (%v)", body, resp.Count, want, err)
			}
			if res.Tuples > 400 {
				reset(t)
			}
		case http.StatusBadRequest:
			errorDoc(t, out)
		default:
			t.Fatalf("status %d outside the error table: %s", rec.Code, out)
		}
	})
}

// errorDoc decodes an error answer, failing unless it is an
// {"error": "..."} document.
func errorDoc(t *testing.T, out []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("error answer is not JSON (%v): %s", err, out)
	}
	if msg, ok := doc["error"].(string); !ok || msg == "" {
		t.Fatalf("error answer without an error message: %s", out)
	}
	return doc
}
