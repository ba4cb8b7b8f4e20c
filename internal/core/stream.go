package core

import (
	"context"

	"repro/internal/leapfrog"
	"repro/internal/stats"
)

// This file implements parallel streaming: the sharded producer behind
// Stmt.Rows and the HTTP "stream" mode. Workers run EvalParallelCtx-style
// root-domain shards, but instead of materializing the whole result
// before the first emit (EvalParallelCtx's tradeoff), each worker feeds a
// bounded channel of row blocks and a merger forwards them to the
// consumer in deterministic shard order: root key i's rows always come
// from channel i%K, and a worker produces its groups in exactly the
// index order the merger consumes them, so the stream is the same
// root-value blocks in the same order regardless of K. Workers run with
// caching disabled — a cache hit expands the memoized subtree at emit
// time rather than during the scan, so a cached stream's intra-block
// order depends on per-worker cache state; disabling makes every
// worker's order the plain scan order and the merged stream
// byte-deterministic across worker counts. The first rows flow as soon
// as worker 0 finds them, and an emit returning false cancels the
// producers instead of finishing the join.

// streamItem is one block of rows from a worker. last marks the end of
// one root value's group; a group may span several items when it
// overflows the block size.
type streamItem struct {
	rows [][]int64
	last bool
}

// streamChanDepth bounds each worker's channel: enough to keep a
// producer ahead of the merger without buffering unbounded results.
const streamChanDepth = 4

// EvalStreamCtx evaluates the plan and streams result tuples to emit in
// the canonical (no-cache sequential scan) order, sharding the root
// domain over the given worker count (<= 0: one per core; one worker,
// or a root domain too small to shard, is the sequential
// EvalParallelCtx scan under the unmodified policy — including its
// caches). On the sharded path the emitted stream is
// tuple-for-tuple identical for every worker count; relative to a
// *cached* sequential run it may reorder tuples within a root-value
// block exactly where cache hits would (the tuple set is always
// identical). On the sharded path emitted slices are freshly allocated
// and may be retained. Returning false from emit stops the stream and
// cancels the workers; producers hand the merger rows blockLen at a
// time, so a stopped stream's workers have scanned at most a few blocks
// past the last delivered row. CachedEntries is 0 on the sharded path:
// workers trade their caches for the deterministic order. When ctx
// trips, delivery stops and ctx's error is returned; tuples already
// emitted stand.
func (p *Plan) EvalStreamCtx(ctx context.Context, policy Policy, workers int, emit func(mu []int64) bool) (EvalResult, error) {
	keys, workers, err := p.shards(ctx, workers)
	if workers == 0 {
		return EvalResult{}, err
	}
	if workers == 1 {
		policy.Workers = 1
		return p.EvalParallelCtx(ctx, policy, emit)
	}

	policy.Disabled = true
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chans := make([]chan streamItem, workers)
	for w := range chans {
		chans[w] = make(chan streamItem, streamChanDepth)
	}

	joined := make(chan struct{})
	go func() {
		defer close(joined)
		leapfrog.RunSharded(workers, p.counters, func(w int, wc *stats.Counters) {
			defer close(chans[w])
			// dead flips when the merger has gone away (sctx cancelled
			// mid-send); emit then returns false so the scan unwinds.
			dead := false
			var buf [][]int64
			send := func(it streamItem) bool {
				select {
				case chans[w] <- it:
					return true
				case <-sctx.Done():
					dead = true
					return false
				}
			}
			e := newEvalExec(sctx, p, policy, shard{keys, w, workers}, wc, func(mu []int64) bool {
				if dead {
					return false
				}
				buf = append(buf, append([]int64(nil), mu...))
				if len(buf) >= leafLen {
					if !send(streamItem{rows: buf}) {
						return false
					}
					buf = nil
				}
				return true
			})
			open := false
			e.enter = func(int) {
				// Group boundary: seal the previous root value's rows.
				if open && !dead {
					if send(streamItem{rows: buf, last: true}) {
						buf = nil
					}
				}
				open = true
			}
			e.rjoin(0)
			if open && !dead {
				send(streamItem{rows: buf, last: true})
			}
			e.finish()
		})
	}()

	var res EvalResult
	stopped := false
	for i := 0; i < len(keys) && !stopped; i++ {
		ch := chans[i%workers]
		for {
			item, ok := <-ch
			if !ok {
				// The worker ended without sealing this group — it was
				// cancelled (workers otherwise produce one sealed group
				// per owned index, in index order).
				stopped = true
				break
			}
			for _, row := range item.rows {
				res.Emitted++
				if !emit(row) {
					stopped = true
					cancel()
					break
				}
			}
			if stopped || item.last {
				break
			}
		}
	}
	cancel()
	<-joined
	return res, ctx.Err()
}
