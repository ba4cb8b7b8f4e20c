package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxRequestBody bounds POST /query bodies (queries are short text).
const maxRequestBody = 1 << 20

// maxUpdateBody bounds POST /update bodies: delta batches carry tuples,
// so they get more headroom than query text.
const maxUpdateBody = 64 << 20

// Backend is what the one HTTP/JSON surface serves — a single engine
// (NewHandler) or a cluster coordinator (cluster.NewHandler) — as method
// values bound once at construction. Both daemons answer through the
// same Handler, so routes, body limits, error shapes, statuses and the
// NDJSON stream are one implementation; a backend contributes only its
// behaviour.
type Backend struct {
	// Query answers one buffered request (count, eval, aggregate).
	Query func(ctx context.Context, req Request) (*Response, error)
	// Stream answers one "mode": "stream" request: header once with the
	// variable order — failures before it still get an ordinary JSON
	// error status — then row per result tuple.
	Stream func(ctx context.Context, req Request, header func(order []string), row func(mu []int64) bool) (StreamSummary, error)
	// Update applies one delta; Stats snapshots the backend. Their
	// results are the backend's own JSON documents.
	Update func(ctx context.Context, req UpdateRequest) (any, error)
	Stats  func(ctx context.Context) (any, error)
	// Health answers GET /healthz with a status and a JSON body.
	Health func(ctx context.Context) (status int, body any)
	// Status maps the backend's own typed errors to an HTTP status and
	// returns 0 for the rest (nil: none of its own). The shared mapping —
	// deadline, cancellation, read-only, caller error — brackets it; the
	// whole table is in docs/OPERATIONS.md.
	Status func(err error) int
	// Prepare and Stmt serve POST /prepare and DELETE /prepare/{id};
	// prepared statements are engine-local handles, so a backend that
	// leaves them nil does not route the paths at all.
	Prepare func(req Request) (*Stmt, error)
	Stmt    func(id string) (*Stmt, error)
}

// NewHandler exposes the engine over HTTP/JSON:
//
//	POST   /query        {"query": "E(x,y), E(y,z), E(x,z)", "mode": "count", ...}
//	                     or {"stmt": "s1", ...} to execute a prepared statement;
//	                     "mode": "stream" streams NDJSON rows instead of buffering
//	POST   /prepare      {"query": "...", ...defaults} -> {"stmt": "s1", ...}
//	DELETE /prepare/{id} close a prepared statement
//	POST   /update       {"relation": "E", "inserts": [[1,2]], "deletes": [[3,4]]}
//	GET    /stats        engine-lifetime counters, registry + plan cache, versions
//	GET    /healthz      readiness probe with per-component state
//
// Request/Response and UpdateRequest/UpdateResult document the wire
// formats. Every handler executes under r.Context(), so a disconnected
// client (or a server shutdown draining connections) cancels its query
// cooperatively; "timeout_ms" bounds one query from the request itself.
// Errors are returned as {"error": "..."} with the 4xx/5xx status
// docs/OPERATIONS.md tabulates (error → status, who can emit it).
func NewHandler(e *Engine) http.Handler {
	return Backend{
		Query:   e.DoCtx,
		Stream:  e.StreamCtx,
		Update:  func(_ context.Context, req UpdateRequest) (any, error) { return e.Update(req) },
		Stats:   func(context.Context) (any, error) { return e.Stats(), nil },
		Health:  e.health,
		Prepare: e.Prepare,
		Stmt:    e.Stmt,
	}.Handler()
}

// health is the engine's readiness, not just liveness: its handler only
// exists once the engine has finished booting, so the 200 means
// "serving". During a warm boot (mmap verification, WAL replay) the
// daemon answers 503 through the Gate instead — a coordinator uses the
// transition to gate shard admission. The body carries per-component
// state so an operator can tell degraded (read-only after a durability
// failure: still 200, reads serve) from dead.
func (e *Engine) health(context.Context) (int, any) {
	components := map[string]any{"engine": "ok", "wal": "ok"}
	body := map[string]any{
		"status":     "ok",
		"ready":      true,
		"queries":    e.queries.Load(),
		"components": components,
	}
	if rs := e.ReadOnly(); rs != nil {
		body["status"] = "degraded"
		components["wal"] = "read_only"
		body["read_only"] = rs
	}
	return http.StatusOK, body
}

// Handler builds the HTTP surface over b.
func (b Backend) Handler() http.Handler {
	mux := http.NewServeMux()
	// Each route is a method pattern answering the happy path plus a
	// bare-path fallback catching every other verb, so wrong-method
	// requests keep the documented JSON error shape instead of the mux's
	// text/plain 405.
	route := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+path, h)
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
		})
	}
	route("POST", "/query", b.query)
	route("POST", "/update", func(w http.ResponseWriter, r *http.Request) {
		var req UpdateRequest
		if decodeInto(w, r, maxUpdateBody, &req) {
			res, err := b.Update(r.Context(), req)
			b.reply(w, res, err)
		}
	})
	route("GET", "/stats", func(w http.ResponseWriter, r *http.Request) {
		st, err := b.Stats(r.Context())
		b.reply(w, st, err)
	})
	route("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		status, body := b.Health(r.Context())
		writeJSON(w, status, body)
	})
	if b.Prepare != nil {
		route("POST", "/prepare", func(w http.ResponseWriter, r *http.Request) {
			var req Request
			if !decodeInto(w, r, maxRequestBody, &req) {
				return
			}
			s, err := b.Prepare(req)
			if err != nil {
				writeError(w, b.status(err), err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"stmt": s.ID(), "query": s.Text()})
		})
		route("DELETE", "/prepare/{id}", func(w http.ResponseWriter, r *http.Request) {
			s, err := b.Stmt(r.PathValue("id"))
			if err != nil {
				writeError(w, http.StatusNotFound, err)
				return
			}
			s.Close()
			writeJSON(w, http.StatusOK, map[string]any{"closed": s.ID()})
		})
	}
	return mux
}

// query answers POST /query: buffered as one JSON Response, or — for
// "mode": "stream" — as NDJSON (see streamLine) with nothing buffered
// and no tuple cap unless the request sets "limit" (then the scan stops
// early and the trailer reports truncated).
func (b *Backend) query(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeInto(w, r, maxRequestBody, &req) {
		return
	}
	if req.Mode != "stream" {
		resp, err := b.Query(r.Context(), req)
		b.reply(w, resp, err)
		return
	}
	sw := newStreamWriter(w)
	defer sw.close()
	started := false
	sum, err := b.Stream(r.Context(), req, func(order []string) {
		// The plan compiled: commit to the NDJSON stream.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		started = true
		sw.order(order)
	}, sw.row)
	switch {
	case err == nil:
		sw.summary(sum)
	case started:
		sw.fail(err)
	default:
		writeError(w, b.status(err), err)
	}
}

// reply answers a buffered request with v, or with err's status.
func (b *Backend) reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeError(w, b.status(err), err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// status maps an error to its HTTP status. Context outcomes come first
// (a coordinator's cancelled fan-out wraps the context error inside its
// own typed error): a query that ran out of wall-clock budget answers
// 504 (a server-side execution deadline; 408 would invite
// spec-compliant clients to auto-retry the join that just timed out), a
// cancelled one the de-facto client-closed-request status. Then a
// refused if_versions precondition (409, engine and coordinator alike),
// the backend's own typed errors, then read-only — degraded, not caller
// error: reads still serve, the operator must intervene — and
// everything else is a caller error.
func (b *Backend) status(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	}
	var vm *VersionMismatch
	if errors.As(err, &vm) {
		return http.StatusConflict
	}
	if b.Status != nil {
		if status := b.Status(err); status != 0 {
			return status
		}
	}
	if errors.Is(err, ErrReadOnly) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// ErrorStatus is the status an engine's own handler answers err with —
// what an in-process caller standing in for a socket client (a cluster
// coordinator over in-process shards) must see in its place.
func ErrorStatus(err error) int { return new(Backend).status(err) }

// decodeInto reads a bounded JSON body — one value, unknown fields and
// trailing bytes refused — into v, answering the error itself and
// reporting whether the handler should continue.
func decodeInto(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, rest := dec.Token(); rest != io.EOF {
			err = errors.New("request body continues after its JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; nothing useful to do on error
}

// writeError answers {"error": "..."}; a refused if_versions precondition
// adds "versions", what the snapshot stands at, for the sender to adopt.
func writeError(w http.ResponseWriter, status int, err error) {
	body := map[string]any{"error": err.Error()}
	var vm *VersionMismatch
	if errors.As(err, &vm) {
		body["versions"] = vm.Have
	}
	writeJSON(w, status, body)
}

// Bounds on the connections of a daemon's listener, fixed rather than
// flags: a client that dribbles its request headers or parks idle
// keep-alives must not hold a connection forever. Request bodies are
// bounded by size (maxRequestBody, maxUpdateBody) and responses are not
// bounded in time — a long stream is not a failure.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server cltjd serves h through, in
// every role (single engine, shard, coordinator).
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
