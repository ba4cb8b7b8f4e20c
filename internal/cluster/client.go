package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
)

// ClientConfig tunes one shard client.
type ClientConfig struct {
	// Timeout bounds each buffered request (query, update, stats,
	// readiness probe) end to end; 0 uses DefaultShardTimeout. Streaming
	// requests are bounded only by their context — a large result set is
	// not a failure.
	Timeout time.Duration
	// Transport overrides the HTTP transport (nil builds the pooled
	// default). The fault-injection harness wraps the default in a
	// faults.Transport here; production leaves it nil.
	Transport http.RoundTripper

	// The fields below are test seams: production leaves them zero,
	// which selects each default.

	// retries is the number of extra attempts for idempotent reads
	// (query, versions, stats, readiness) after a transport failure —
	// never after an HTTP-level answer, and never for updates, which are
	// not idempotent. Negative disables retry; 0 uses
	// defaultShardRetries.
	retries int
	// backoff is the base delay before the first retry; attempt k waits
	// backoff·2^k scaled by a uniform jitter in [0.5, 1.5), so a fleet
	// of retriers does not re-converge on a struggling shard in
	// lockstep. 0 uses defaultShardBackoff; negative disables the sleep
	// (retries fire immediately).
	backoff time.Duration
	// breakerThreshold is how many consecutive transport failures open
	// the endpoint's circuit (requests then fail fast with
	// ErrBreakerOpen until a half-open probe succeeds). A call ended by
	// its caller's context does not count; one ended by Timeout does.
	// 0 uses defaultBreakerThreshold.
	breakerThreshold int
	// breakerCooldown is the open-circuit rejection window before one
	// half-open probe is admitted; 0 uses defaultBreakerCooldown.
	breakerCooldown time.Duration
}

// DefaultShardTimeout bounds one buffered shard request when the config
// does not name one.
const DefaultShardTimeout = 30 * time.Second

// defaultShardRetries is the bounded retry budget for idempotent reads.
const defaultShardRetries = 2

// defaultShardBackoff is the base retry delay.
const defaultShardBackoff = 50 * time.Millisecond

// Client speaks the shard protocol over the daemon's HTTP/JSON surface.
// It keeps one transport per shard with connection reuse (the
// coordinator's fan-out pattern makes every shard a hot peer), applies
// a per-request timeout, and retries idempotent reads a bounded number
// of times on transport errors. Safe for concurrent use.
type Client struct {
	name    string
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	brk     *breaker
}

// NewClient returns a shard client for addr (host:port, or a full
// http:// base URL).
func NewClient(addr string, cfg ClientConfig) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = DefaultShardTimeout
	}
	retries := cfg.retries
	if retries == 0 {
		retries = defaultShardRetries
	}
	if retries < 0 {
		retries = 0
	}
	backoff := cfg.backoff
	if backoff == 0 {
		backoff = defaultShardBackoff
	}
	if backoff < 0 {
		backoff = 0
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	return &Client{
		name:    addr,
		base:    strings.TrimSuffix(base, "/"),
		hc:      &http.Client{Transport: transport},
		timeout: timeout,
		retries: retries,
		backoff: backoff,
		brk:     newBreaker(cfg.breakerThreshold, cfg.breakerCooldown),
	}
}

// BreakerStates implements BreakerStater: the one endpoint circuit this
// client guards.
func (c *Client) BreakerStates() []BreakerState {
	return []BreakerState{c.brk.snapshot(c.name)}
}

// sleepBackoff waits out the jittered exponential delay before retry
// attempt k (0-based), or returns early with ctx's error.
func sleepBackoff(ctx context.Context, base time.Duration, k int) error {
	if base <= 0 {
		return nil
	}
	d := base << min(k, 10)
	// Uniform jitter in [0.5, 1.5): retriers spread out instead of
	// re-converging on a struggling shard in lockstep.
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Name implements Shard.
func (c *Client) Name() string { return c.name }

// roundTrip performs one bounded HTTP exchange and decodes the JSON
// answer into out. A non-2xx status decodes the daemon's {"error": ...}
// body into the error it stands for (decodeError). idempotent requests
// are retried on transport errors (connection refused/reset, timeout
// before any HTTP answer) up to the retry budget.
func (c *Client) roundTrip(ctx context.Context, method, path string, body any, out any, idempotent bool) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			if err := sleepBackoff(ctx, c.backoff, attempt-1); err != nil {
				return lastErr
			}
		}
		if !c.brk.allow() {
			// Fail fast instead of stacking timeouts on an endpoint the
			// breaker already proved dead; retrying locally is pointless
			// too — the circuit stays open for the whole cooldown.
			return fmt.Errorf("%w: %s", ErrBreakerOpen, c.name)
		}
		lastErr = c.once(ctx, method, path, payload, out)
		var se *StatusError
		var vm *server.VersionMismatch
		answered := lastErr == nil || errors.As(lastErr, &se) || errors.As(lastErr, &vm)
		c.settle(ctx, answered)
		if answered || ctx.Err() != nil {
			// An HTTP-level answer is authoritative — the shard saw the
			// request; only transport failures are worth retrying.
			return lastErr
		}
	}
	return lastErr
}

// settle feeds the breaker the outcome of one admitted exchange:
// answered, a transport failure, or — when the caller's own ctx is done
// — neither. A caller that cancelled or ran out its deadline mid-call
// says nothing about the endpoint; the client's own per-call timeout
// (once) is not the caller's ctx and still counts as a failure.
func (c *Client) settle(ctx context.Context, answered bool) {
	if !answered && ctx.Err() != nil {
		c.brk.forget()
		return
	}
	c.brk.record(answered)
}

// call is roundTrip decoding the answer into a fresh T.
func call[T any](ctx context.Context, c *Client, method, path string, body any, idempotent bool) (*T, error) {
	out := new(T)
	if err := c.roundTrip(ctx, method, path, body, out, idempotent); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp.StatusCode, resp.Body)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx answer back into the error the shard
// refused with: a 409 carrying "versions" is the engine's
// *server.VersionMismatch, the type an in-process shard returns, and
// anything else a *StatusError with the daemon's JSON error message (the
// raw body for non-JSON answers).
func decodeError(status int, r io.Reader) error {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error    string            `json:"error"`
		Versions map[string]uint64 `json:"versions"`
	}
	if json.Unmarshal(raw, &e) != nil || e.Error == "" {
		return &StatusError{Status: status, Msg: strings.TrimSpace(string(raw))}
	}
	if status == http.StatusConflict && e.Versions != nil {
		return &server.VersionMismatch{Have: e.Versions}
	}
	return &StatusError{Status: status, Msg: e.Error}
}

// Ready implements Shard: GET /healthz, expecting the 200 the daemon
// only serves once its engine is booted (the readiness gate answers 503
// during warm boot / WAL replay).
func (c *Client) Ready(ctx context.Context) error {
	return c.roundTrip(ctx, http.MethodGet, "/healthz", nil, nil, true)
}

// Versions implements Shard via GET /stats — the whole stats document,
// which is fine for a call the coordinator makes once per shard.
func (c *Client) Versions(ctx context.Context, names []string) (map[string]uint64, error) {
	st, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]uint64, len(names))
	for _, rel := range st.Relations {
		if names == nil || want[rel.Name] {
			out[rel.Name] = rel.Version
		}
	}
	return out, nil
}

// Do implements Shard: POST /query. Count, eval and aggregate are
// reads, so transport failures are retried within the budget.
func (c *Client) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	return call[server.Response](ctx, c, http.MethodPost, "/query", req, true)
}

// Update implements Shard: POST /update, never retried (a delta is not
// idempotent — a retry after an ambiguous transport failure could apply
// it twice; set semantics absorb that, but whether to re-send after an
// ambiguous failure is the caller's call, not the transport's).
func (c *Client) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	return call[server.UpdateResult](ctx, c, http.MethodPost, "/update", req, false)
}

// Stats implements Shard: GET /stats.
func (c *Client) Stats(ctx context.Context) (*server.EngineStats, error) {
	return call[server.EngineStats](ctx, c, http.MethodGet, "/stats", nil, true)
}

// Stream implements Shard: POST /query with "mode": "stream", decoding
// the NDJSON answer with the reader that sits beside the shard's writer
// (server.ReadStream) — header line, row lines, summary or error trailer;
// row gets ReadStream's reused slice — copy to retain. Not retried: rows
// may already have been delivered. The request's context bounds the
// whole stream (no per-request timeout — long streams are not
// failures); row returning false abandons the response body, which
// cancels the shard's scan through its request context.
func (c *Client) Stream(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error) {
	req.Mode = "stream"
	payload, err := json.Marshal(req)
	if err != nil {
		return server.StreamSummary{}, err
	}
	if !c.brk.allow() {
		return server.StreamSummary{}, fmt.Errorf("%w: %s", ErrBreakerOpen, c.name)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query", bytes.NewReader(payload))
	if err != nil {
		return server.StreamSummary{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// The injection harness classifies requests by URL path; streams
	// share /query with buffered reads, so the class rides a header.
	hreq.Header.Set(faults.ClassHeader, "stream")
	resp, err := c.hc.Do(hreq)
	c.settle(ctx, err == nil)
	if err != nil {
		return server.StreamSummary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.StreamSummary{}, decodeError(resp.StatusCode, resp.Body)
	}
	return server.ReadStream(resp.Body, header, row)
}
