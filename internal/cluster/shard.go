package cluster

import (
	"context"

	"repro/internal/server"
)

// Shard is the protocol a coordinator speaks to one shard engine. Client
// speaks the daemon's HTTP/JSON surface over a socket; ReplicaSet serves
// one partition from several replicas, each itself a Shard. The cluster
// tests also run the coordinator over engines in process. Every
// implementation must be safe for concurrent use.
type Shard interface {
	// Name identifies the shard in errors and stats (the address for
	// socket shards).
	Name() string
	// Ready reports whether the shard is serving: nil once the engine
	// answers (readiness, not liveness — a warm boot still replaying its
	// WAL is not ready). The coordinator gates shard admission on it.
	Ready(ctx context.Context) error
	// Versions returns the shard's current version number per named
	// relation. The coordinator asks once, about a shard it has never
	// seen a vector from; afterwards Do and Stream carry the vector it
	// expects (Request.IfVersions) and a shard standing elsewhere
	// refuses with a *server.VersionMismatch naming where.
	Versions(ctx context.Context, names []string) (map[string]uint64, error)
	// Do executes one buffered query (count, eval, aggregate).
	Do(ctx context.Context, req server.Request) (*server.Response, error)
	// Stream executes one streaming eval: header once with the plan's
	// variable order, then row per result tuple in the engine's
	// deterministic order (root-ascending; reused slice — copy to
	// retain); row returning false stops the shard's scan.
	Stream(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error)
	// Update applies one (already routed) delta to the shard. A failed
	// update returns a nil result, unless part of the shard applied it
	// (a replica group): the result is then the version that part serves.
	Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error)
	// Stats snapshots the shard engine's lifetime statistics.
	Stats(ctx context.Context) (*server.EngineStats, error)
}
