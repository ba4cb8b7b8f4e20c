package core

import (
	"context"

	"repro/internal/leapfrog"
	"repro/internal/stats"
)

// This file is the one driver under every execution entry point. CLFTJ
// has two traversals — the semiring fold (fold.go) and the enumeration
// (eval.go) — and both parallelize the same way, by sharding the root
// trie level. The outermost loop of CachedTJCount iterates the matches
// of the first variable, and distinct root values are independent: no
// cache key ever spans two of them, because adhesion depths of every
// cacheable bag are strictly smaller than the bag's first depth and
// depth 0 belongs to the root bag, which is never cached. A run
// therefore enumerates the root domain once (a cheap k-way intersection
// scan), deals the values to K workers round-robin, and gives every
// worker its own executor: a private runner (trie cursors over the
// shared immutable tries), cache manager, canceler and stats.Counters.
// Workers never share mutable state; their results and accounting are
// merged after the join, in worker order, so runs are deterministic.
// One worker is the sequential case: it owns the whole root level,
// scans it with plain Next() and accounts straight into the plan's
// sink, so no root-domain prescan ever shows up in its counters. See
// DESIGN.md, "Parallel execution", for the shared-vs-per-worker cache
// tradeoff this design picks a side of.

// blockLen is how many keys the deepest level's scan drains per
// Leapfrog.NextBatch call, and how many rows the streaming producer hands
// the merger at a time. The block is a fixed array inside each executor,
// which a run keeps on its own stack: neither a per-request heap object
// nor memory a cached plan retains.
const blockLen = 256

// leafLen is the part of the block a scan uses. It is blockLen outside
// tests; the differential tests shorten it (1 is the scalar Key/Next
// sequence through the same loop) to move the block boundaries across
// small results.
var leafLen = blockLen

// shard is one worker's share of the root domain: the root values
// keys[start], keys[start+stride], … — ascending, so the forward-only
// frog seek visits each in one pass. The zero shard (nil keys) is the
// whole domain, scanned with Next() rather than seeked.
type shard struct {
	keys          []int64
	start, stride int
}

// shards is the prologue of every execution: it fails on a dead ctx,
// reports zero workers for an empty instance (the result is the
// traversal's zero value), and otherwise resolves the worker knob
// against the root domain (leapfrog.ShardDomain). One worker comes with
// nil keys — the sequential scan, which never enumerates the root level.
func (p *Plan) shards(ctx context.Context, workers int) ([]int64, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if p.inst.Empty() {
		return nil, 0, nil
	}
	keys, n := leapfrog.ShardDomain(p.inst, workers, p.counters)
	return keys, n, nil
}

// worker is one executor's per-worker state, whichever traversal it
// runs: its shard of the root domain, a runner over the plan's tries,
// the caches of subtree results, the canceler and the deepest level's
// block. The fold (foldState) and the enumeration (evalExec) embed it and
// add their own intermediates.
type worker[V any] struct {
	shard
	plan   *Plan
	run    *leapfrog.Runner
	mu     []int64
	cm     *manager[V]        // nil: nothing is cached (acquireManager)
	ownCM  bool               // cm came from the pool and goes back at finish
	cancel *leapfrog.Canceler // nil never cancels
	block  [blockLen]int64    // the deepest level's keys, a block at a time
}

// newWorker builds a worker over shard sh, accounting into wc, with
// pooled caches charged by cost unless cm hands it resident ones. It
// returns the worker by value so that a run keeps it on its own stack.
func newWorker[V any](ctx context.Context, p *Plan, policy Policy, cm *manager[V], cost func(V) int, sh shard, wc *stats.Counters) worker[V] {
	own := cm == nil
	if own {
		cm = acquireManager(policy, p, wc, cost)
	}
	w := worker[V]{
		shard:  sh,
		plan:   p,
		run:    leapfrog.NewRunnerCounters(p.inst, wc),
		cm:     cm,
		ownCM:  own,
		cancel: leapfrog.NewCanceler(ctx),
	}
	w.mu = w.run.Assignment()
	return w
}

// tally is what every executor hands back beside its traversal's own
// result: resident cache entries and the cancellation its canceler
// latched (nil for a completed scan).
type tally struct {
	entries int
	err     error
}

// finish closes a worker's run, whether the scan completed, stopped or
// was cancelled: it reads the resident entries, hands the runner back
// and returns pooled caches to the pool.
func (w *worker[V]) finish() tally {
	t := tally{entries: w.cm.Entries(), err: w.cancel.Err()}
	w.run.Release()
	if w.ownCM {
		w.cm.release()
	}
	return t
}

// add merges a worker's tally: entries sum (the capacity bound applies
// per worker, so K workers may retain up to K*Capacity entries in
// total), and the first cancellation wins.
func (t *tally) add(o tally) {
	t.entries += o.entries
	if t.err == nil {
		t.err = o.err
	}
}
