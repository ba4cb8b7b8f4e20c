package core

import (
	"context"

	"repro/internal/leapfrog"
	"repro/internal/stats"
)

// This file is the one sharded enumeration, under EvalParallelCtx on
// more than one worker (Stmt.Rows and the HTTP "eval" and "stream"
// modes reach it through Workers). Each worker scans its root-domain
// shard into a bounded channel of row blocks and a merger forwards them
// to the consumer in deterministic shard order: root key i's rows always
// come from channel i%K, and a worker produces its groups in exactly the
// index order the merger consumes them. Every worker emits a root
// value's rows in the scan order whatever its caches hold, so the merged
// stream is the sequential one row for row regardless of K and of the
// cache policy. The first rows flow as soon as worker 0 finds them,
// nothing but the channels' blocks is ever buffered, and an emit
// returning false cancels the producers instead of finishing the join.

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

// EvalStreamCtx is EvalParallelCtx with the worker count beside the
// policy (<= 0 is one per core).
func (p *Plan) EvalStreamCtx(ctx context.Context, policy Policy, workers int, emit func(mu []int64) bool) (EvalResult, error) {
	policy.Workers = workers
	return p.EvalParallelCtx(ctx, policy, emit)
}

// evalSharded enumerates the plan over workers > 1 shards of the root
// domain keys and merges their rows into emit in ascending root order.
// Producers hand the merger rows blockLen at a time, so a stopped
// stream's workers have scanned at most a few blocks past the last
// delivered row. Under a limit each worker sends only its own first
// limit rows, then counts the rest of its shard, and the merger stops
// delivering at the limit and drains the channels while the workers
// finish. The workers' counts, cache entries and level tallies are
// summed, as in the fold; a run ctx cut short reports only Emitted.
func (p *Plan) evalSharded(ctx context.Context, policy Policy, limit int, keys []int64, workers int, emit func(mu []int64) bool) (EvalResult, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chans := make([]chan streamItem, workers)
	for w := range chans {
		chans[w] = make(chan streamItem, streamChanDepth)
	}
	parts := make([]tally, workers)
	counts := make([]int64, workers)

	joined := make(chan struct{})
	go func() {
		defer close(joined)
		leapfrog.RunSharded(workers, p.counters, func(w int, wc *stats.Counters) {
			defer close(chans[w])
			// dead flips when the merger has gone away (sctx cancelled
			// mid-send); emit then returns false so the scan unwinds.
			// sent flips once the worker has sent all it ever will: the
			// group its limit fell in, sealed.
			dead, sent := false, false
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
			e := newEvalExec(sctx, p, policy, limit, shard{keys, w, workers}, wc, func(mu []int64) bool {
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
			e.enter = func() {
				// Group boundary: seal the previous root value's rows.
				if open && !dead && !sent {
					if send(streamItem{rows: buf, last: true}) {
						buf = nil
					}
					sent = e.counting
				}
				open = true
			}
			e.rjoin(0, 1)
			if open && !dead && !sent {
				send(streamItem{rows: buf, last: true})
			}
			counts[w] = e.emitted + e.counted
			parts[w] = e.finish()
		})
	}()

	var res EvalResult
	stopped := false
	full := func() bool { return limit > 0 && res.Emitted == int64(limit) }
	for i := 0; i < len(keys) && !stopped && !full(); i++ {
		ch := chans[i%workers]
		for {
			item, ok := <-ch
			if !ok {
				// The worker ended without sealing this group — it was
				// cancelled (workers otherwise produce one sealed group
				// per owned index, in index order, until the merger has
				// its limit).
				stopped = true
				break
			}
			for _, row := range item.rows {
				if full() {
					break
				}
				res.Emitted++
				if !emit(row) {
					stopped = true
					cancel()
					break
				}
			}
			if stopped || item.last || full() {
				break
			}
		}
	}
	if stopped {
		cancel()
	}
	// The workers past the merger's limit are still counting, and those
	// short of theirs still sending: take what they send until they end.
	for _, ch := range chans {
		for range ch {
		}
	}
	<-joined
	if err := ctx.Err(); err != nil {
		return res, err
	}
	// A worker the merger stopped latched sctx's cancellation; only the
	// caller's ctx is an error here.
	var t tally
	for w, part := range parts {
		res.Count += counts[w]
		t.add(part)
	}
	res.CachedEntries, res.Levels = t.entries, t.levels
	return res, nil
}
