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

// TestStreamNDJSONGoldenAcrossWorkers pins the parallel streaming
// contract at the wire: the NDJSON bytes of a no-cache stream are
// byte-identical at stream_workers 1, 2 and 8, and match the checked-in
// golden transcript (regenerate deliberately with
// `go test ./internal/server -run StreamNDJSONGolden -update`).
func TestStreamNDJSONGoldenAcrossWorkers(t *testing.T) {
	srv, _ := newTestServer(t)
	bodies := make(map[int][]byte)
	for _, workers := range []int{1, 2, 8} {
		req := fmt.Sprintf(`{"query": "E(x,y), E(y,z), E(x,z)", "mode": "stream", "no_cache": true, "stream_workers": %d}`, workers)
		bodies[workers] = streamBody(t, srv, req)
	}
	for _, workers := range []int{2, 8} {
		if !bytes.Equal(bodies[workers], bodies[1]) {
			t.Fatalf("stream_workers=%d output differs from sequential:\n--- %d workers ---\n%s\n--- sequential ---\n%s",
				workers, workers, bodies[workers], bodies[1])
		}
	}

	golden := filepath.Join("testdata", "stream.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, bodies[1], 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/server -run StreamNDJSONGolden -update`): %v", err)
	}
	if !bytes.Equal(bodies[1], want) {
		t.Errorf("stream output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, bodies[1], want)
	}
}

// TestStreamDefaultWorkersIsSequential pins what Config.StreamWorkers
// documents: unset (0) is the sequential stream — the one that keeps the
// per-query caches — on a multi-core GOMAXPROCS too, where core's own
// "0 = one producer per core" would shard it. The sequential path shows
// in the accounting (the sharded producers never enter the caches), and
// its bytes equal the explicitly sharded stream's.
func TestStreamDefaultWorkersIsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := NewEngine(testDB(), Config{})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)

	// A 3-path caches on its middle adhesion; the triangle's single bag
	// has none, so the cached and the sharded scans emit the same order.
	streamBody(t, srv, `{"query": "E(x,y), E(y,z), E(z,w)", "mode": "stream"}`)
	if life := e.Stats().Lifetime; life.CacheHits+life.CacheMisses == 0 {
		t.Fatal("default-config stream never entered the caches: StreamWorkers 0 ran the sharded producers")
	}
	def := streamBody(t, srv, `{"query": "E(x,y), E(y,z), E(x,z)", "mode": "stream"}`)
	sharded := streamBody(t, srv, `{"query": "E(x,y), E(y,z), E(x,z)", "mode": "stream", "stream_workers": 4}`)
	if !bytes.Equal(def, sharded) {
		t.Fatalf("default stream differs from stream_workers=4:\n--- default ---\n%s\n--- 4 workers ---\n%s", def, sharded)
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

	stmt, err := e.Prepare(Request{Query: "E(x,y), E(y,z)", NoCache: true, StreamWorkers: 3})
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
						Query:         "E(x,y), E(y,z)",
						Mode:          "stream",
						NoCache:       true,
						StreamWorkers: 1 + rng.Intn(4),
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
						Query:         "E(a,b), E(b,c), E(c,d)",
						Mode:          "stream",
						StreamWorkers: 2 + rng.Intn(3),
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
