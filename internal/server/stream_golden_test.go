package server

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// streamBody POSTs one streaming query and returns the raw NDJSON body.
func streamBody(t *testing.T, srv *httptest.Server, req string) []byte {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// streamPolicies are the cache settings every enumeration is held to,
// as request-body fragments: no caches (what writes the goldens), the
// default caches, a bounded LRU and a support threshold.
var streamPolicies = []string{
	`, "no_cache": true`,
	``,
	`, "cache_capacity": 16, "cache_eviction": "lru"`,
	`, "cache_support": 2`,
}

// TestStreamNDJSONGoldenAcrossWorkers pins the streaming contract at the
// wire: the NDJSON bytes of a stream are identical at workers 1, 2 and 8
// under every cache policy, and match the checked-in golden transcript of
// the no-cache sequential stream (regenerate deliberately with
// `go test ./internal/server -run StreamNDJSONGolden -update`). The
// triangle has one bag and no cache site; the 3-path's plan caches a
// bag whose hits come before a later bag's depth.
func TestStreamNDJSONGoldenAcrossWorkers(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, g := range []struct {
		file, query string
		limit       int
	}{
		{"stream.golden", "E(x,y), E(y,z), E(x,z)", 0},
		{"stream_path.golden", "E(x,y), E(y,z), E(z,w)", 200},
	} {
		body := func(workers int, policy string) []byte {
			return streamBody(t, srv, fmt.Sprintf(`{"query": %q, "mode": "stream", "limit": %d, "workers": %d%s}`,
				g.query, g.limit, workers, policy))
		}
		golden := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(golden, body(1, streamPolicies[0]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run `go test ./internal/server -run StreamNDJSONGolden -update`): %v", err)
		}
		for _, policy := range streamPolicies {
			for _, workers := range []int{1, 2, 8} {
				if got := body(workers, policy); !bytes.Equal(got, want) {
					t.Errorf("%s at workers %d%s: output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
						g.query, workers, policy, golden, got, want)
				}
			}
		}
	}
}

// TestStreamDefaultWorkersKeepsCaches pins what a default-config stream
// runs: Config.Workers 0 (one worker per core, four here) under the
// request's cache policy, so it enters the caches, and its bytes equal
// the explicit four-worker stream's.
func TestStreamDefaultWorkersKeepsCaches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := NewEngine(testDB(), Config{})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)

	def := streamBody(t, srv, `{"query": "E(x,y), E(y,z), E(z,w)", "mode": "stream"}`)
	if life := e.Stats().Lifetime; life.CacheHits+life.CacheMisses == 0 {
		t.Fatal("default-config stream never entered the caches")
	}
	sharded := streamBody(t, srv, `{"query": "E(x,y), E(y,z), E(z,w)", "mode": "stream", "workers": 4}`)
	if !bytes.Equal(def, sharded) {
		t.Fatalf("default stream (%d bytes) differs from workers=4 (%d bytes)", len(def), len(sharded))
	}
}

// TestEvalSampleAcrossWorkersAndCaches holds a buffered eval's sample to
// the same contract: the tuples it returns are the first rows of the one
// enumeration order under every cache policy and worker count.
func TestEvalSampleAcrossWorkersAndCaches(t *testing.T) {
	srv, _ := newTestServer(t)
	var want []any
	for _, policy := range streamPolicies {
		for _, workers := range []int{1, 2, 8} {
			resp, out := postQuery(t, srv, fmt.Sprintf(`{"query": "E(x,y), E(y,z), E(z,w)", "mode": "eval", "limit": 200, "workers": %d%s}`, workers, policy))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("workers %d%s: status %d, body %v", workers, policy, resp.StatusCode, out)
			}
			got, _ := out["tuples"].([]any)
			if len(got) != 200 {
				t.Fatalf("workers %d%s: %d tuples, want 200", workers, policy, len(got))
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("workers %d%s: sample differs from the no-cache sequential one", workers, policy)
			}
		}
	}
}
