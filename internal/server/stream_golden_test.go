package server

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestStreamConcurrentStress mixes parallel streams, live updates and
// registry eviction pressure, with some streams abandoned mid-iteration
// and some cancelled mid-scan, then checks that every producer
// goroutine drains and each completed stream saw one consistent
// snapshot (a round row count for its epoch, never a torn mix). Run
// under -race in CI.
func TestStreamConcurrentStress(t *testing.T) {
	base := runtime.NumGoroutine()
	// A tight trie budget keeps the registry evicting while patched
	// versions come and go under the streams.
	e := NewEngine(testDB(), Config{Workers: 2, TrieBudget: 1 << 16})

	stmt, err := e.Prepare(Request{Query: "E(x,y), E(y,z)", NoCache: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	stop := make(chan struct{})
	var uwg sync.WaitGroup
	uwg.Add(1)
	go func() {
		defer uwg.Done()
		i := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			tup := [][]int64{{30000 + i, 30001 + i}}
			if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: tup}); err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Update(UpdateRequest{Relation: "E", Deletes: tup}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const clients = 6
	const perClient = 6
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				switch i % 3 {
				case 0:
					// Full drain through StreamCtx at a random worker count.
					var rows int64
					sum, err := e.StreamCtx(context.Background(), Request{
						Query:   "E(x,y), E(y,z)",
						Mode:    "stream",
						NoCache: true,
						Workers: 1 + rng.Intn(4),
					}, nil, func([]int64) bool { rows++; return true })
					if err != nil {
						errs <- fmt.Errorf("client %d stream %d: %w", c, i, err)
					} else if rows != sum.Count {
						errs <- fmt.Errorf("client %d stream %d: %d rows vs summary %d", c, i, rows, sum.Count)
					}
				case 1:
					// Abandon a Rows iteration mid-stream (break).
					n, limit := 0, 1+rng.Intn(10)
					for _, err := range stmt.Rows(context.Background()) {
						if err != nil {
							errs <- fmt.Errorf("client %d rows %d: %w", c, i, err)
							break
						}
						if n++; n >= limit {
							break
						}
					}
				case 2:
					// Cancel mid-scan.
					ctx, cancel := context.WithCancel(context.Background())
					timer := time.AfterFunc(time.Duration(rng.Intn(5))*time.Millisecond, cancel)
					_, err := e.StreamCtx(ctx, Request{
						Query:   "E(a,b), E(b,c), E(c,d)",
						Mode:    "stream",
						Workers: 2 + rng.Intn(3),
					}, nil, func([]int64) bool { return true })
					timer.Stop()
					cancel()
					if err != nil && !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("client %d cancel %d: %w", c, i, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	uwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every sharded producer and merger must have drained: the goroutine
	// count settles back to (about) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Abandoned and cancelled streams released their epochs: superseded
	// versions reclaim down to the steady-state inventory (current
	// version + patch base per relation).
	stats := e.Stats()
	if max := 2 * len(stats.Relations); stats.LiveVersions > max {
		t.Fatalf("epochs leaked: %d live versions, want <= %d", stats.LiveVersions, max)
	}
}
