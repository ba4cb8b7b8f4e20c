package cluster

import (
	"context"
	"errors"
	"strings"
	"time"

	"repro/internal/server"
)

// ReplicaConfig tunes one replica group.
type ReplicaConfig struct {
	// Hedge, when positive, launches the read on the next replica after
	// this delay if the current attempt has not answered yet — the first
	// success wins and cancels the laggards. Tail-latency insurance for
	// buffered reads; 0 disables hedging (pure sequential failover).
	// Streams and updates are never hedged (rows may already be out; a
	// delta must reach every replica).
	Hedge time.Duration
}

// ReplicaSet serves one partition from several interchangeable replicas
// holding the same data slice. Reads fail over between replicas —
// sequentially, or concurrently after a hedge delay — so one dead
// endpoint does not take the partition down; updates fan out to every
// replica and all must succeed. It implements Shard, so the coordinator
// treats a replicated partition exactly like a single endpoint.
//
// Consistency: a read carries the version vector the coordinator expects
// of the partition (Request.IfVersions), and a replica standing anywhere
// else refuses it. A replica that refuses because it is behind — it
// missed an update its siblings applied — is failed over like a dead
// one, so a stale replica is never read from, single-shard routes
// included; with no caught-up replica answering, the group's error is
// that refusal (a live but stale partition is a 409 for the operator to
// repair, not a 502), and a retried update converges the group. A
// refusal reporting a newer vector is the coordinator's to act on (the
// data moved behind its back) and is returned as it is.
type ReplicaSet struct {
	name  string
	reps  []Shard
	hedge time.Duration
}

// NewReplicaSet groups interchangeable replicas (same partition, same
// data) into one logical shard. Order matters only as preference:
// reads try replicas in the given order.
func NewReplicaSet(reps []Shard, cfg ReplicaConfig) *ReplicaSet {
	names := make([]string, len(reps))
	for i, r := range reps {
		names[i] = r.Name()
	}
	return &ReplicaSet{
		name:  strings.Join(names, "|"),
		reps:  reps,
		hedge: cfg.Hedge,
	}
}

// Name implements Shard: the replica endpoints joined by "|", matching
// the -shards flag syntax that built the group.
func (r *ReplicaSet) Name() string { return r.name }

// failoverable reports whether err justifies trying another replica.
// Transport failures, open breakers, shard-side 5xx and a stale replica
// all do — the next replica may well serve. A 4xx is the shard answering
// that the request itself is bad, and a refusal reporting a newer vector
// that the data has moved; every replica would answer identically, so
// both are authoritative and returned as-is.
func failoverable(err error, want map[string]uint64) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	var vm *server.VersionMismatch
	if errors.As(err, &vm) {
		return behind(vm.Have, want)
	}
	return true
}

// passedOver collects the failures a read failed over past and picks the
// one the group answers with when no replica served: a stale replica's
// refusal if there was one — the partition is up but behind, which the
// caller must not mistake for down — else the last failure.
type passedOver struct{ stale, last error }

func (p *passedOver) add(err error) {
	p.last = err
	var vm *server.VersionMismatch
	if p.stale == nil && errors.As(err, &vm) {
		p.stale = err
	}
}

func (p *passedOver) err() error {
	if p.stale != nil {
		return p.stale
	}
	return p.last
}

// read runs f against replicas in preference order until one answers,
// the error is authoritative, or ctx dies. want is the vector the read
// expects (nil: none).
func read[T any](ctx context.Context, r *ReplicaSet, want map[string]uint64, f func(ctx context.Context, s Shard) (T, error)) (T, error) {
	var zero T
	var failed passedOver
	for _, s := range r.reps {
		if ctx.Err() != nil {
			break
		}
		out, err := f(ctx, s)
		if err == nil || !failoverable(err, want) {
			return out, err
		}
		failed.add(err)
	}
	if err := failed.err(); err != nil {
		return zero, err
	}
	return zero, ctx.Err()
}

// Ready implements Shard: the partition is ready when any replica is.
func (r *ReplicaSet) Ready(ctx context.Context) error {
	_, err := read(ctx, r, nil, func(ctx context.Context, s Shard) (struct{}, error) {
		return struct{}{}, s.Ready(ctx)
	})
	return err
}

// Versions implements Shard, answering from the first live replica.
func (r *ReplicaSet) Versions(ctx context.Context, names []string) (map[string]uint64, error) {
	return read(ctx, r, nil, func(ctx context.Context, s Shard) (map[string]uint64, error) {
		return s.Versions(ctx, names)
	})
}

// Stats implements Shard, answering from the first live replica.
func (r *ReplicaSet) Stats(ctx context.Context) (*server.EngineStats, error) {
	return read(ctx, r, nil, func(ctx context.Context, s Shard) (*server.EngineStats, error) {
		return s.Stats(ctx)
	})
}

// Do implements Shard: sequential failover, or hedged when configured —
// queries are reads, so racing two replicas is safe.
func (r *ReplicaSet) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	if r.hedge <= 0 || len(r.reps) < 2 {
		return read(ctx, r, req.IfVersions, func(ctx context.Context, s Shard) (*server.Response, error) {
			return s.Do(ctx, req)
		})
	}
	return r.hedgedDo(ctx, req)
}

// hedgedDo races replicas with staggered starts: replica i+1 launches
// when the hedge delay elapses with no answer yet, or immediately when
// an attempt fails. First success wins and cancels the laggards; an
// authoritative refusal wins too (every replica would refuse
// identically), and a stale replica counts as a failed attempt.
func (r *ReplicaSet) hedgedDo(ctx context.Context, req server.Request) (*server.Response, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // the winner abandons the laggards
	type result struct {
		resp *server.Response
		err  error
	}
	// Buffered to every replica: abandoned laggards complete their send
	// and exit — no goroutine outlives the call by more than its own
	// (cancelled) request.
	results := make(chan result, len(r.reps))
	launched := 0
	launch := func() {
		s := r.reps[launched]
		launched++
		go func() {
			resp, err := s.Do(ctx, req)
			results <- result{resp, err}
		}()
	}
	launch()
	timer := time.NewTimer(r.hedge)
	defer timer.Stop()
	pending := 1
	var failed passedOver
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			if res.err == nil {
				return res.resp, nil
			}
			if ctx.Err() == nil && !failoverable(res.err, req.IfVersions) {
				return nil, res.err
			}
			failed.add(res.err)
			if ctx.Err() == nil && launched < len(r.reps) {
				// A failure frees its hedge slot immediately — no point
				// waiting out the timer on a dead attempt.
				launch()
				pending++
			}
		case <-timer.C:
			if launched < len(r.reps) {
				launch()
				pending++
				timer.Reset(r.hedge)
			}
		}
	}
	return nil, failed.err()
}

// Update implements Shard: the delta fans out to every replica
// concurrently and all must succeed — a replica that missed an update
// would serve stale reads forever. On a partial failure the error names
// the replica; a retry converges (set semantics make re-application a
// version-preserving no-op on the replicas that already applied it).
// Siblings are not cancelled on failure: the more replicas that apply,
// the less the retry has left to repair. Beside that error it returns
// the result of the first replica that did apply, if any: the version
// the group now serves, which the coordinator's reads must expect so
// the replicas left behind refuse them.
func (r *ReplicaSet) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	results := make([]*server.UpdateResult, len(r.reps))
	_, err := each(ctx, r.reps, allIndexes(len(r.reps)), "update", false, func(ctx context.Context, i int) error {
		res, err := r.reps[i].Update(ctx, req)
		if err == nil {
			results[i] = res
		}
		return err
	})
	for _, res := range results {
		if res != nil {
			return res, err
		}
	}
	return nil, err
}

// Stream implements Shard. Failover is only sound while no row has been
// delivered: once rows are out, a replay from another replica would
// re-deliver them, so a mid-stream death surfaces as the error it is
// (the coordinator's partial mode decides what to do with it). A stale
// replica refuses before its header, so it is always still failed over.
// The header is deduplicated across attempts — replicas plan
// identically, so the first fired order stands. row gets the serving
// replica's slice as it passes it on (reused slice — copy to retain).
func (r *ReplicaSet) Stream(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error) {
	fired := false
	hdr := func(order []string) {
		if !fired {
			fired = true
			if header != nil {
				header(order)
			}
		}
	}
	var failed passedOver
	var lastSum server.StreamSummary
	for _, s := range r.reps {
		if ctx.Err() != nil {
			break
		}
		delivered := false
		sum, err := s.Stream(ctx, req, hdr, func(mu []int64) bool {
			delivered = true
			return row(mu)
		})
		if err == nil || delivered || !failoverable(err, req.IfVersions) {
			return sum, err
		}
		failed.add(err)
		lastSum = sum
	}
	if err := failed.err(); err != nil {
		return lastSum, err
	}
	return lastSum, ctx.Err()
}

// BreakerStates implements BreakerStater: the concatenation of every
// replica's circuits, in preference order.
func (r *ReplicaSet) BreakerStates() []BreakerState {
	var out []BreakerState
	for _, s := range r.reps {
		if bs, ok := s.(BreakerStater); ok {
			out = append(out, bs.BreakerStates()...)
		}
	}
	return out
}
