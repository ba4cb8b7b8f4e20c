package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faults"
)

// openFaulty boots a cold persistent engine with inj armed over its
// store and returns it with the baseline triangle count.
func openFaulty(t *testing.T, dir string, inj *faults.Injector) (*Engine, int64) {
	t.Helper()
	e, _, err := OpenEngine(Config{Workers: 1, DataDir: dir, faults: inj}, testLoader(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	return e, resp.Count
}

// TestReadOnlyAfterWALFailure pins the degraded-mode contract: a failed
// WAL fsync flips the engine to typed read-only — the failing update
// and every later one answer ErrReadOnly (503 over HTTP), reads keep
// serving the last durable snapshot, /healthz reports the component
// state, and a restart recovers a writable engine without the
// un-persisted update.
func TestReadOnlyAfterWALFailure(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1).Add(faults.Rule{Site: "store/E.wal/appendsync", Nth: 1})
	e, base := openFaulty(t, dir, inj)

	_, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{5, 6}}})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("update with failing fsync: %v, want ErrReadOnly", err)
	}
	if rs := e.ReadOnly(); rs == nil || rs.Reason == "" {
		t.Fatalf("ReadOnly() = %+v, want populated state", rs)
	}
	// Reads keep serving, and the un-persisted version was never
	// installed: the count is the durable one.
	resp, err := e.Do(Request{Query: triangles})
	if err != nil {
		t.Fatalf("read in read-only mode: %v", err)
	}
	if resp.Count != base {
		t.Fatalf("read-only count = %d, want durable %d", resp.Count, base)
	}
	// Later updates are refused at entry with the same typed error.
	if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{7, 8}}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("second update: %v, want ErrReadOnly", err)
	}

	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	ur, err := http.Post(srv.URL+"/update", "application/json",
		strings.NewReader(`{"relation": "E", "inserts": [[9, 10]]}`))
	if err != nil {
		t.Fatal(err)
	}
	ur.Body.Close()
	if ur.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read-only /update status = %d, want 503", ur.StatusCode)
	}
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status     string            `json:"status"`
		Ready      bool              `json:"ready"`
		Components map[string]string `json:"components"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !health.Ready {
		t.Fatalf("degraded /healthz = %d ready=%v, want 200 + ready (reads serve)", hr.StatusCode, health.Ready)
	}
	if health.Status != "degraded" || health.Components["wal"] != "read_only" || health.Components["engine"] != "ok" {
		t.Fatalf("degraded /healthz body = %+v, want status=degraded wal=read_only", health)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart recovers: the directory holds only durable state, so the
	// engine boots warm, writable, at the pre-failure count.
	e2, warm, err := OpenEngine(Config{Workers: 1, DataDir: dir}, testLoader(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !warm {
		t.Fatal("restart after read-only was not warm")
	}
	if e2.ReadOnly() != nil {
		t.Fatal("restarted engine is still read-only")
	}
	resp2, err := e2.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Count != base {
		t.Fatalf("restarted count = %d, want %d", resp2.Count, base)
	}
	if _, err := e2.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{5, 6}}}); err != nil {
		t.Fatalf("restarted engine refused a clean update: %v", err)
	}
}

// TestReadOnlyAfterTornAppend drives the short-write fault: the injected
// append persists a real torn prefix, the engine flips read-only, and
// the next boot truncates the torn tail and serves the durable state.
func TestReadOnlyAfterTornAppend(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(2).Add(faults.Rule{Site: "store/E.wal/append", Kind: faults.KindShort, Nth: 1, Bytes: 5})
	e, base := openFaulty(t, dir, inj)

	if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{5, 6}}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("update with torn append: %v, want ErrReadOnly", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, warm, err := OpenEngine(Config{Workers: 1, DataDir: dir}, testLoader(t, nil))
	if err != nil {
		t.Fatalf("boot over a torn WAL tail: %v", err)
	}
	defer e2.Close()
	if !warm {
		t.Fatal("restart was not warm")
	}
	st := e2.Stats()
	if st.Persistence == nil || st.Persistence.WALTornBytes != 5 {
		t.Fatalf("recovery truncated %v torn bytes, want 5", st.Persistence)
	}
	resp, err := e2.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != base {
		t.Fatalf("recovered count = %d, want durable %d", resp.Count, base)
	}
}

// TestRegistryPressureFault pins the third injection boundary: a query
// under forced eviction pressure pays cold trie rebuilds but stays
// byte-correct.
func TestRegistryPressureFault(t *testing.T) {
	inj := faults.New(3)
	e, _, err := OpenEngine(Config{Workers: 1, faults: inj}, testLoader(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	warmResp, err := e.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Counters.TrieBuilds != 0 {
		t.Fatalf("warm repeat built %d tries, want 0", again.Stats.Counters.TrieBuilds)
	}
	inj.Add(faults.Rule{Site: "registry/pressure", P: 1})
	cold, err := e.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Count != warmResp.Count {
		t.Fatalf("count under eviction pressure = %d, want %d", cold.Count, warmResp.Count)
	}
	if cold.Stats.Counters.TrieBuilds == 0 {
		t.Fatal("forced eviction pressure did not trigger rebuilds")
	}
}
