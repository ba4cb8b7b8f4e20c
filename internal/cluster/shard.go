package cluster

import (
	"context"
	"errors"

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

// EngineShard adapts an in-process *server.Engine to the shard
// protocol: the coordinator's fan-out and merge logic runs unchanged
// over function calls instead of sockets, which is what the
// differential harness drives.
type EngineShard struct {
	name string
	e    *server.Engine
}

// NewEngineShard wraps an engine as a named in-process shard.
func NewEngineShard(name string, e *server.Engine) *EngineShard {
	return &EngineShard{name: name, e: e}
}

// Engine returns the wrapped engine (test hooks: landing updates behind
// the coordinator's back).
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

// refusal renders an engine's own error as its HTTP surface would have
// answered it to a Client, so one request fails alike over in-process
// and socket fleets: a *StatusError carrying the status the engine's
// handler maps the error to. Context outcomes and a refused if_versions
// stay the typed errors both fleets hand the coordinator.
func refusal(err error) error {
	var vm *server.VersionMismatch
	if err == nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || errors.As(err, &vm) {
		return err
	}
	return &StatusError{Status: server.ErrorStatus(err), Msg: err.Error()}
}

// Do implements Shard.
func (s *EngineShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	resp, err := s.e.DoCtx(ctx, req)
	return resp, refusal(err)
}

// Stream implements Shard: the engine's rows as Engine.StreamCtx hands
// them out (reused slice — copy to retain).
func (s *EngineShard) Stream(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error) {
	sum, err := s.e.StreamCtx(ctx, req, header, row)
	return sum, refusal(err)
}

// Update implements Shard.
func (s *EngineShard) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := s.e.Update(req)
	return res, refusal(err)
}

// Stats implements Shard.
func (s *EngineShard) Stats(ctx context.Context) (*server.EngineStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := s.e.Stats()
	return &st, nil
}
