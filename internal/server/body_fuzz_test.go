package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// FuzzQueryBody posts arbitrary bytes to POST /query on a small engine:
// a request body is untrusted input. No body may panic the handler. One
// that does not decode as a Request (malformed JSON, an unknown field
// such as the retired "stream_workers" or "no_order_cost", trailing
// bytes) gets decodeInto's 400. One that does gets a typed answer: a
// Response, an NDJSON stream that ends in its summary or error line, or
// an {"error": ...} document under a status of the error table.
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
		`{"query": "E(3,y), E(y,y)", "orderer": "greedy", "timeout_ms": 1}`,
		`{"stmt": "` + stmt.ID() + `", "limit": -1, "mode": "stream"}`,
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

// FuzzPrepareBody posts arbitrary bytes to POST /prepare, the other
// handler that decodes a Request from an untrusted body. No body may
// panic it. One that does not decode gets decodeInto's 400, as does a
// decoded one naming an unknown orderer (checked on a seed up front).
// Otherwise the answer is a typed error document, or a 200 naming the
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
	for _, tc := range []struct {
		orderer string
		status  int
	}{
		{"", http.StatusOK},
		{"greedy", http.StatusOK},
		{"cost", http.StatusOK},
		{"adaptive", http.StatusOK},
		{"nosuch", http.StatusBadRequest},
	} {
		body := []byte(`{"query": "E(x,y), E(y,z), E(z,w)", "mode": "eval", "orderer": "` + tc.orderer + `"}`)
		rec := prepare(body)
		if rec.Code != tc.status {
			f.Fatalf("%s answered %d, want %d: %s", body, rec.Code, tc.status, rec.Body)
		}
		if rec.Code == http.StatusOK {
			closeStmt(f, rec.Body.Bytes())
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
			if !core.Orderer(req.Orderer).Valid() {
				t.Fatalf("orderer %q prepared: %s", req.Orderer, out)
			}
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
