package cluster

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/server"
)

// engineShard adapts an in-process *server.Engine to the shard
// protocol: the coordinator's fan-out and merge logic runs unchanged
// over function calls instead of sockets, which is what the
// differential harness drives.
type engineShard struct {
	name string
	e    *server.Engine
}

// newEngineShard wraps an engine as a named in-process shard.
func newEngineShard(name string, e *server.Engine) *engineShard {
	return &engineShard{name: name, e: e}
}

// Name implements Shard.
func (s *engineShard) Name() string { return s.name }

// Ready implements Shard: an in-process engine is ready by
// construction.
func (s *engineShard) Ready(ctx context.Context) error { return ctx.Err() }

// Versions implements Shard.
func (s *engineShard) Versions(ctx context.Context, names []string) (map[string]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := s.e.Stats()
	return relationVersions(&st, names), nil
}

// refusal renders an engine's own error as its HTTP surface would have
// answered it to a Client, so one request fails alike over in-process
// and socket fleets: a *StatusError carrying the status the engine's
// handler maps the error to, 503 for a read-only engine and 400 for
// the rest. Context outcomes and a refused if_versions stay the typed
// errors both fleets hand the coordinator.
func refusal(err error) error {
	var vm *server.VersionMismatch
	if err == nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || errors.As(err, &vm) {
		return err
	}
	status := http.StatusBadRequest
	if errors.Is(err, server.ErrReadOnly) {
		status = http.StatusServiceUnavailable
	}
	return &StatusError{Status: status, Msg: err.Error()}
}

// Do implements Shard.
func (s *engineShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	resp, err := s.e.DoCtx(ctx, req)
	return resp, refusal(err)
}

// Stream implements Shard: the engine's rows as Engine.StreamCtx hands
// them out (reused slice — copy to retain).
func (s *engineShard) Stream(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error) {
	sum, err := s.e.StreamCtx(ctx, req, header, row)
	return sum, refusal(err)
}

// Update implements Shard.
func (s *engineShard) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := s.e.Update(req)
	return res, refusal(err)
}

// Stats implements Shard.
func (s *engineShard) Stats(ctx context.Context) (*server.EngineStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := s.e.Stats()
	return &st, nil
}
