package cluster

import (
	"context"

	"repro/internal/server"
)

// Shard is the protocol a coordinator speaks to one shard engine. Two
// implementations exist: EngineShard runs the engine in-process (the
// differential-test and benchmark harness), Client speaks the daemon's
// HTTP/JSON surface over a socket. Both are safe for concurrent use.
type Shard interface {
	// Name identifies the shard in errors and stats (the address for
	// socket shards).
	Name() string
	// Ready reports whether the shard is serving: nil once the engine
	// answers (readiness, not liveness — a warm boot still replaying its
	// WAL is not ready). The coordinator gates shard admission on it.
	Ready(ctx context.Context) error
	// Versions returns the shard's current version number per named
	// relation — the coordinator's consistent-snapshot handshake
	// collects these before fanning out and rejects a merge whose
	// responses executed at any other vector.
	Versions(ctx context.Context, names []string) (map[string]uint64, error)
	// Do executes one buffered query (count, eval, aggregate).
	Do(ctx context.Context, req server.Request) (*server.Response, error)
	// Stream executes one streaming eval: header once with the plan's
	// variable order, then row per result tuple in the engine's
	// deterministic order (root-ascending); row returning false stops
	// the shard's scan.
	Stream(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error)
	// Update applies one (already routed) delta to the shard.
	Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error)
	// Stats snapshots the shard engine's lifetime statistics.
	Stats(ctx context.Context) (*server.EngineStats, error)
}

// EngineShard adapts an in-process *server.Engine to the shard
// protocol: the coordinator's fan-out and merge logic runs unchanged
// over function calls instead of sockets, which is what the
// differential harness and the E20 benchmark drive.
type EngineShard struct {
	name string
	e    *server.Engine
}

// NewEngineShard wraps an engine as a named in-process shard.
func NewEngineShard(name string, e *server.Engine) *EngineShard {
	return &EngineShard{name: name, e: e}
}

// Engine returns the wrapped engine (test hooks: injecting updates
// between handshake steps).
func (s *EngineShard) Engine() *server.Engine { return s.e }

// Name implements Shard.
func (s *EngineShard) Name() string { return s.name }

// Ready implements Shard: an in-process engine is ready by
// construction.
func (s *EngineShard) Ready(ctx context.Context) error { return ctx.Err() }

// Versions implements Shard.
func (s *EngineShard) Versions(ctx context.Context, names []string) (map[string]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.e.VersionNumbers(names), nil
}

// Do implements Shard.
func (s *EngineShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	return s.e.DoCtx(ctx, req)
}

// Stream implements Shard.
func (s *EngineShard) Stream(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error) {
	return s.e.StreamCtx(ctx, req, header, row)
}

// Update implements Shard.
func (s *EngineShard) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.e.Update(req)
}

// Stats implements Shard.
func (s *EngineShard) Stats(ctx context.Context) (*server.EngineStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := s.e.Stats()
	return &st, nil
}
