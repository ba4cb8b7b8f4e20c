package cluster

import (
	"errors"
	"fmt"
)

// ErrNotShardable marks a query the partitioning cannot answer exactly:
// scatter–gather over disjoint first-attribute partitions is only sound
// when one variable leads every atom (or one shard provably holds all
// contributing tuples). The coordinator refuses such queries with a 400
// rather than returning a silently partial result.
var ErrNotShardable = errors.New("cluster: query is not shardable under first-attribute partitioning")

// ErrSnapshotMoved marks a consistent-snapshot handshake the coordinator
// could not complete: a shard refused the version vector expected of it
// again on the one retry (updates are landing behind the coordinator's
// back faster than it can follow), or stands behind what the coordinator
// has already seen applied and no caught-up replica answered. Nothing
// was merged or delivered (HTTP 409); in the first case the client
// retries against the settled state, in the second the operator has a
// shard to bring up to date.
var ErrSnapshotMoved = errors.New("cluster: shard version vector moved mid-query")

// ErrBreakerOpen marks a request rejected locally because the
// endpoint's circuit breaker is open: recent consecutive transport
// failures proved the endpoint unreachable, so the client fails fast
// instead of stacking timeouts on it. A replica set treats it like any
// transport failure (fails over); the coordinator surfaces it as a 502
// ShardError (or converts it to a missing shard under allow_partial).
var ErrBreakerOpen = errors.New("cluster: endpoint circuit breaker is open")

// ShardError is a typed failure naming the shard that caused it — the
// coordinator never folds a failed shard into a silent partial result.
// The HTTP handler renders it as a 502 naming the shard (or the shard's
// own 4xx status when the shard rejected the request as malformed, and
// 409 when it wraps ErrSnapshotMoved).
type ShardError struct {
	// Shard names the failed shard (its address for socket shards).
	Shard string
	// Op is the protocol operation that failed: "versions", "query",
	// "stream", "update", "stats" or "merge".
	Op string
	// Err is the underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %s: %s: %v", e.Shard, e.Op, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// StatusError is a shard's HTTP-level rejection: the status it answered
// and the error body it sent. The coordinator distinguishes a shard
// telling the client its request is malformed (4xx, passed through)
// from a shard failing (everything else, surfaced as a 502 ShardError).
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shard answered %d: %s", e.Status, e.Msg)
}
