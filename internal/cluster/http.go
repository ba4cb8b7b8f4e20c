package cluster

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/server"
)

// NewHandler exposes the coordinator over the HTTP/JSON surface a single
// daemon serves — the same handler (server.Backend), so clients need not
// know whether they talk to one engine or a fleet:
//
//	POST /query    count/eval/aggregate merged across the fleet;
//	               "mode": "stream" streams merged NDJSON rows,
//	               byte-identical to a single engine over the union
//	POST /update   delta routed to the shards its tuples hash to
//	GET  /stats    merged fleet stats (exact lifetime-counter fold)
//	GET  /healthz  ready only when every shard is ready
//
// Prepared statements are not served — they are engine-local handles.
// What the coordinator adds to the shared surface is its fleet health
// body and its own error statuses (errStatus); docs/OPERATIONS.md has
// the whole error → status table.
func NewHandler(c *Coordinator) http.Handler {
	return server.Backend{
		Query:  c.Do,
		Stream: c.StreamCtx,
		Update: func(ctx context.Context, req server.UpdateRequest) (any, error) { return c.Update(ctx, req) },
		Stats:  func(ctx context.Context) (any, error) { return c.Stats(ctx) },
		Health: c.health,
		Status: errStatus,
	}.Handler()
}

// healthProbeTimeout bounds one fleet readiness sweep.
const healthProbeTimeout = 5 * time.Second

// health answers GET /healthz. The coordinator is ready exactly when its
// whole fleet is: a fleet with an unready shard cannot answer any
// multi-shard query, so advertising readiness stays 503 — but the body
// itemizes which partitions are down (allow_partial queries can still be
// served over the rest) and the circuit states, so an operator sees the
// blast radius in one probe. Every shard is probed individually; a dead
// one does not mask the others.
func (c *Coordinator) health(ctx context.Context) (int, any) {
	ctx, cancel := context.WithTimeout(ctx, healthProbeTimeout)
	defer cancel()
	errs, _ := each(ctx, c.shards, allIndexes(len(c.shards)), "ready", false, func(ctx context.Context, i int) error {
		return c.shards[i].Ready(ctx)
	})
	fleet := make([]map[string]any, len(c.shards))
	var firstErr error // by partition, not by arrival: the body is stable
	for i, s := range c.shards {
		fleet[i] = map[string]any{"shard": s.Name(), "ready": errs[i] == nil}
		if errs[i] != nil {
			fleet[i]["error"] = errs[i].Error()
			if firstErr == nil {
				firstErr = errs[i]
			}
		}
	}
	body := map[string]any{
		"status":   "ok",
		"ready":    true,
		"shards":   len(c.shards),
		"fleet":    fleet,
		"breakers": c.breakerStates(),
	}
	if firstErr == nil {
		return http.StatusOK, body
	}
	body["status"] = "degraded"
	body["ready"] = false
	body["error"] = firstErr.Error()
	return http.StatusServiceUnavailable, body
}

// errStatus maps the coordinator's own failures to their HTTP status (0:
// not one of them — the shared mapping decides, after it has already
// claimed context outcomes, which a cancelled fan-out wraps inside a
// ShardError): the handshake rejection, the routing refusal, then shard
// failures — where a shard's own 4xx rejection passes through (the
// request was wrong, not the fleet) and everything else is a 502 naming
// the failed shard via the ShardError message.
func errStatus(err error) int {
	var se *StatusError
	var she *ShardError
	switch {
	case errors.Is(err, ErrSnapshotMoved):
		return http.StatusConflict
	case errors.Is(err, ErrNotShardable):
		return http.StatusBadRequest
	case errors.As(err, &se) && se.Status >= 400 && se.Status < 500:
		return se.Status
	case errors.As(err, &she):
		return http.StatusBadGateway
	}
	return 0
}
