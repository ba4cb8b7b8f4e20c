package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/relation"
	"repro/internal/server"
)

// engineShard adapts an in-process *server.Engine to the shard
// protocol: the coordinator's fan-out and merge logic runs unchanged
// over function calls instead of sockets.
type engineShard struct {
	name string
	e    *server.Engine
}

// newEngineShard wraps an engine as a named in-process shard.
func newEngineShard(name string, e *server.Engine) *engineShard {
	return &engineShard{name: name, e: e}
}

// newFleet partitions db across n in-process engines and stands up a
// coordinator over them; wrap, when set, stands in for shard i.
func newFleet(t *testing.T, db *relation.DB, n int, cfg server.Config, ccfg Config, wrap func(i int, s Shard) Shard) (*Coordinator, []*server.Engine) {
	t.Helper()
	dbs, routing, err := Partition(db, n)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*server.Engine, n)
	shards := make([]Shard, n)
	for i, pdb := range dbs {
		engines[i] = server.NewEngine(pdb, cfg)
		shards[i] = newEngineShard(fmt.Sprintf("shard-%d", i), engines[i])
		if wrap != nil {
			shards[i] = wrap(i, shards[i])
		}
	}
	coord, err := New(routing, shards, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord, engines
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
