package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/relation"
	"repro/internal/server"
)

// engineConfig is what `cltjd -workers 1` builds: one worker, so counts
// do not depend on the host's cores, everything else default.
var engineConfig = server.Config{Workers: 1}

// site is one served endpoint: a handler on a loopback listener inside
// this process.
type site struct {
	url  string
	srv  *http.Server
	done chan error // Serve's return
}

func listen(h http.Handler) (*site, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &site{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan error, 1), // Serve's one result, read by close
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the server down and returns once its accept loop has
// ended; Shutdown closes the listener and every idle connection.
func (s *site) close(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// countingTransport counts the coordinator's shard round trips that
// failed in transport (each such failure is what a retry follows).
type countingTransport struct {
	rt     *http.Transport
	failed atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(r)
	if err != nil {
		t.failed.Add(1)
	}
	return resp, err
}

// deployment is the system under test: one engine behind
// server.NewHandler, or shard engines behind their handlers plus a
// coordinator behind cluster.NewHandler. The client only ever sees front.
type deployment struct {
	engines []*server.Engine
	coord   *cluster.Coordinator
	front   *site
	sites   []*site // every listener, front included
	shardRT *countingTransport
}

// deploy builds engines over db and opens their listeners. tr may be
// nil; otherwise every handler is wrapped to record spans.
func deploy(db *relation.DB, shards int, tr *tracer) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			err = errors.Join(err, d.close())
		}
	}()
	serve := func(name string, h http.Handler) (*site, error) {
		if tr != nil {
			h = tr.wrap(name, h)
		}
		s, err := listen(h)
		if err == nil {
			d.sites = append(d.sites, s)
		}
		return s, err
	}
	if shards == 0 {
		e := server.NewEngine(db, engineConfig)
		d.engines = append(d.engines, e)
		d.front, err = serve(spanServerHTTP, server.NewHandler(e))
		return d, err
	}
	parts, _, err := cluster.Partition(db, shards)
	if err != nil {
		return d, err
	}
	var addrs []string
	for _, part := range parts {
		e := server.NewEngine(part, engineConfig)
		d.engines = append(d.engines, e)
		s, err := serve(spanShardHTTP, server.NewHandler(e))
		if err != nil {
			return d, err
		}
		addrs = append(addrs, s.url)
	}
	// The pooled transport cluster.NewClient would build for itself,
	// held here so its idle connections can be closed on the way out.
	d.shardRT = &countingTransport{rt: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}}
	d.coord, err = cluster.NewHTTP(addrs, cluster.ClientConfig{Transport: d.shardRT}, cluster.Config{})
	if err != nil {
		return d, err
	}
	d.front, err = serve(spanClusterHTTP, cluster.NewHandler(d.coord))
	return d, err
}

// close stops every server, waits for their goroutines, drops pooled
// connections and closes the engines.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	// Front first, so the coordinator stops calling shards before they go.
	for i := len(d.sites) - 1; i >= 0; i-- {
		errs = append(errs, d.sites[i].close(ctx))
	}
	if d.shardRT != nil {
		d.shardRT.rt.CloseIdleConnections()
	}
	for _, e := range d.engines {
		errs = append(errs, e.Close())
	}
	return errors.Join(errs...)
}

// engineTotals sums what the deployment's engines report about their
// trie registries and plan caches.
type engineTotals struct {
	regHits, regBuilds, regPatches, regBytes int64
	planHits, planMisses                     int64
}

func (d *deployment) totals() engineTotals {
	var t engineTotals
	for _, e := range d.engines {
		st := e.Stats()
		t.regHits += st.Registry.Hits
		t.regBuilds += st.Registry.Builds
		t.regPatches += st.Registry.Patches
		t.regBytes += st.Registry.Bytes
		t.planHits += st.Plans.Hits
		t.planMisses += st.Plans.Misses
	}
	return t
}

// routeStats is the coordinator's routing-cache accounting (zero on a
// single engine).
func (d *deployment) routeStats(ctx context.Context) (cluster.RouteCacheStats, error) {
	if d.coord == nil {
		return cluster.RouteCacheStats{}, nil
	}
	st, err := d.coord.Stats(ctx)
	if err != nil {
		return cluster.RouteCacheStats{}, err
	}
	return st.Routes, nil
}

// failedTrips is the number of shard round trips that failed in
// transport, each of which the shard client answers with a retry.
func (d *deployment) failedTrips() int64 {
	if d.shardRT == nil {
		return 0
	}
	return d.shardRT.failed.Load()
}

// The span names of the served handlers.
const (
	spanClient      = "client"
	spanServerHTTP  = "server.http"
	spanClusterHTTP = "cluster.http"
	spanShardHTTP   = "cluster.shard_http"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0: none).
// Replay marks the spans of the layer ladder, which re-run a request's
// input through one layer's entry point outside any served request.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	Type    string `json:"type"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Replay  bool   `json:"replay,omitempty"`

	typ int // a client span's request type, as an index
}

// tracer keeps spans in memory. With one closed-loop client at most one
// request is in flight, so the handler wrappers find their request and
// their parent span in the two fields the client and the front handler
// set, without touching the wire.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	ids   int64

	req    atomic.Int64 // the client request in flight
	client atomic.Int64 // its client span
	front  atomic.Int64 // the front handler's span, parent of shard spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) nextID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// countingWriter counts response bytes and keeps the Flusher the NDJSON
// stream handlers need.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap records one span per request h serves while tracing is on.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.nextID()
		parent := t.client.Load()
		if name == spanShardHTTP {
			parent = t.front.Load()
		} else {
			t.front.Store(id)
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		t.add(span{
			ID: id, Parent: parent, Req: t.req.Load(), Name: name, Type: r.URL.Path,
			StartNS: t.since(start), EndNS: t.since(end), Bytes: cw.n,
		})
	})
}
