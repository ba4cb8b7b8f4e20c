package server

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/cq"
)

// Stmt is a prepared statement: one query parsed, validated and
// compiled once, executable any number of times. The compiled plan
// lives in the engine's plan cache as a shape plus a binding to one
// snapshot's tries, and an execution only ever runs a binding of the
// snapshot it pinned, so a Stmt never answers from stale data — after
// an Update the next execution re-binds the shape to the new versions'
// tries (patched, usually) transparently, without planning again. A
// Stmt is safe for concurrent use; executions are independent requests
// with private caches and counters, exactly as Engine.DoCtx.
//
// The request passed to Prepare supplies the statement's default mode,
// cache policy, parallelism, limit and timeout; per-execution overrides
// go through Do.
type Stmt struct {
	e     *Engine
	id    string
	q     *cq.Query
	text  string   // canonical query text (q.String())
	names []string // sorted distinct relation names, the components of its version vector
	def   Request  // defaults from the prepare request (Query and Stmt cleared)
}

// Prepare parses, validates and compiles req.Query, registers the
// statement under a fresh id (execute over HTTP as {"stmt": id}), and
// returns it. The compile warms the plan cache, so the first execution
// is already a plan-cache hit; the compile's work (including any shared
// trie builds) is charged to the engine's lifetime counters. req's
// execution fields become the statement's defaults.
func (e *Engine) Prepare(req Request) (*Stmt, error) {
	if req.Stmt != "" {
		return nil, fmt.Errorf("server: cannot prepare from prepared statement %q", req.Stmt)
	}
	q, err := cq.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	// Surface every deferred-execution error now, not on the first of
	// many executions: an unknown default mode or semiring would fail
	// each Do, and streaming is a per-execution transport choice, not
	// a default.
	switch req.Mode {
	case "", "count", "eval", "aggregate":
	default:
		return nil, fmt.Errorf("server: cannot prepare mode %q (want count, eval or aggregate; request streaming per execution)", req.Mode)
	}
	switch req.Semiring {
	case "", "count", "sum", "min":
	default:
		return nil, fmt.Errorf("server: cannot prepare semiring %q (want count, sum or min)", req.Semiring)
	}
	s := &Stmt{e: e, q: q, text: q.String(), names: RelNames(q), def: req}
	s.def.Query = ""

	// Refuse a full registry before compiling: a leaking client looping
	// Prepare past the cap must not keep paying (and charging the
	// shared caches for) full plan compilations. The registration below
	// re-checks under the same lock, so the cap itself stays exact.
	maxPrepared := e.cfg.MaxPrepared
	if maxPrepared <= 0 {
		maxPrepared = DefaultMaxPrepared
	}
	capErr := func() error {
		return fmt.Errorf("server: %d prepared statements already registered (close unused ones or raise Config.MaxPrepared)", maxPrepared)
	}
	e.stmtMu.Lock()
	full := len(e.stmts) >= maxPrepared
	e.stmtMu.Unlock()
	if full {
		return nil, capErr()
	}

	// Compile once now, through the request prologue with nothing to
	// execute: surfaces policy and plan errors at prepare time and leaves
	// the plan resident for the first execution. The work is merged into
	// the lifetime counters either way — it happened.
	if err := s.run(context.Background(), s.def, func(context.Context, execution) error { return nil }); err != nil {
		return nil, err
	}

	e.stmtMu.Lock()
	if len(e.stmts) >= maxPrepared {
		e.stmtMu.Unlock()
		return nil, capErr()
	}
	e.stmtSeq++
	s.id = fmt.Sprintf("s%d", e.stmtSeq)
	e.stmts[s.id] = s
	e.stmtMu.Unlock()
	return s, nil
}

// Stmt returns the prepared statement registered under id.
func (e *Engine) Stmt(id string) (*Stmt, error) {
	e.stmtMu.Lock()
	defer e.stmtMu.Unlock()
	s, ok := e.stmts[id]
	if !ok {
		return nil, fmt.Errorf("server: no prepared statement %q", id)
	}
	return s, nil
}

// ID returns the statement's registry id.
func (s *Stmt) ID() string { return s.id }

// Text returns the canonical query text.
func (s *Stmt) Text() string { return s.text }

// Close unregisters the statement: later executions by id fail, and
// in-process handles stop pinning it. Cached plans are unaffected (they
// belong to the plan cache, not the statement). Closing twice is a
// no-op.
func (s *Stmt) Close() {
	s.e.stmtMu.Lock()
	defer s.e.stmtMu.Unlock()
	if s.e.stmts[s.id] == s {
		delete(s.e.stmts, s.id)
	}
}

// merge overlays per-execution overrides on the statement's defaults:
// any field set in over wins, zero fields keep the prepared value.
// Query/Stmt are identity fields and never merged.
func (s *Stmt) merge(over Request) Request {
	req := s.def
	if over.Mode != "" {
		req.Mode = over.Mode
	}
	if over.Workers != 0 {
		req.Workers = over.Workers
	}
	if over.CacheCapacity != 0 {
		req.CacheCapacity = over.CacheCapacity
	}
	if over.CacheSupport != 0 {
		req.CacheSupport = over.CacheSupport
	}
	if over.CacheEviction != "" {
		req.CacheEviction = over.CacheEviction
	}
	if over.NoCache {
		req.NoCache = true
	}
	if over.Limit != 0 {
		req.Limit = over.Limit
	}
	if over.Semiring != "" {
		req.Semiring = over.Semiring
	}
	if over.TimeoutMS != 0 {
		req.TimeoutMS = over.TimeoutMS
	}
	if over.IfVersions != nil {
		req.IfVersions = over.IfVersions
	}
	return req
}

// Do executes the prepared statement, applying over's non-zero
// execution fields on top of the prepare-time defaults. It is
// Engine.DoCtx minus parsing — with a warm cache, minus TD selection
// and plan compilation too.
func (s *Stmt) Do(ctx context.Context, over Request) (*Response, error) {
	return s.exec(ctx, s.merge(over))
}

// Rows streams the result set one assignment at a time, aligned with
// the plan's variable order (each yielded slice is a fresh copy the
// consumer may retain). Unlike eval-mode Do, nothing is buffered and no
// limit applies: rows are produced as the scan finds them, on one worker
// whatever the statement's Workers default says, in the lexicographic
// order of the plan's variable order under every cache policy, so the
// first row arrives before the join finishes and an abandoned iteration
// (break) stops the scan immediately. When ctx is cancelled — or the statement's default
// timeout passes — the stream ends with a final (nil, ctx.Err()) pair
// after the rows already yielded; iterate with
// `for row, err := range stmt.Rows(ctx)` and check err before using
// row.
//
// Snapshot contract: the iteration pins one epoch for its whole
// lifetime. The stream enters the epoch tracker before the first row
// and answers from that single consistent snapshot — a concurrent
// Update installs new versions for later queries but never mutates the
// live stream's view, and the versions the stream reads stay resident
// (pinned against registry reclamation) until the iteration ends. The
// epoch is released exactly once, whether the stream drains, errors, or
// is abandoned by break/return — but until then it holds superseded
// versions alive, so break or return from the loop promptly.
func (s *Stmt) Rows(ctx context.Context) iter.Seq2[[]int64, error] {
	return func(yield func([]int64, error) bool) {
		stopped := false
		err := s.stream(ctx, s.def, nil, func(mu []int64) bool {
			if !yield(append([]int64(nil), mu...), nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// stream is the shared streaming execution under Rows and
// Engine.StreamCtx: eval of req against the current snapshot, header
// invoked once with the plan's variable order (may be nil), row per
// assignment (reused slice; return false to stop). The row callbacks run
// as the scan finds matches — nothing is buffered. The returned error is
// the compile failure or ctx's error; a consumer stop is a normal
// completion.
func (s *Stmt) stream(ctx context.Context, req Request, header func(order []string), row func(mu []int64) bool) error {
	return s.run(ctx, req, func(ctx context.Context, x execution) error {
		if header != nil {
			header(x.plan.Order())
		}
		// The cache policy applies as in every mode; the enumeration runs
		// on one worker whatever Workers says.
		if _, err := x.plan.EvalParallelCtx(ctx, x.pol, row); err != nil {
			return err
		}
		s.e.queries.Add(1)
		return nil
	})
}

// StreamCtx executes one eval request in streaming form: header is
// invoked once with the plan's variable order, then row per result
// tuple (reused slice — copy to retain; return false to stop early).
// The request may name a prepared statement ("stmt") or carry query
// text; either way the plan comes from the plan cache when warm, and
// the effective limit — the override if set, else the statement's
// prepared default — stops the scan early with Truncated set. With no
// effective limit the whole result streams (unlike buffered eval's
// default cap); a negative override clears a prepared default limit
// explicitly, since 0 means "unset" in the merge. This is the
// transport-agnostic core of the HTTP NDJSON endpoint.
func (e *Engine) StreamCtx(ctx context.Context, req Request, header func(order []string), row func(mu []int64) bool) (StreamSummary, error) {
	s, req, err := e.resolve(req)
	if err != nil {
		return StreamSummary{}, err
	}
	var sum StreamSummary
	limit := int64(req.Limit)
	err = s.stream(ctx, req, header, func(mu []int64) bool {
		if limit > 0 && sum.Count >= limit {
			// Only now is truncation a fact, not a guess: a row beyond
			// the limit exists (a result of exactly limit rows ends the
			// scan naturally and stays Truncated == false).
			sum.Truncated = true
			return false
		}
		sum.Count++
		return row(mu) // a consumer stop still counts the delivered row
	})
	return sum, err
}
