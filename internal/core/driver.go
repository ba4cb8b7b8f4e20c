package core

import (
	"context"

	"repro/internal/leapfrog"
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

// tally is what every executor hands back beside its traversal's own
// result: resident cache entries, the per-depth intersection tallies,
// and the cancellation its canceler latched (nil for a completed scan).
type tally struct {
	entries int
	levels  []LevelStat
	err     error
}

// finish closes an executor's run: it reads the runner's level tallies
// (pooled state, so before the Release) and hands the runner back.
func finish(run *leapfrog.Runner, entries int, cancel *leapfrog.Canceler) tally {
	t := tally{entries: entries, levels: levelsOf(run), err: cancel.Err()}
	run.Release()
	return t
}

// add merges a worker's tally: entries and levels sum (the capacity
// bound applies per worker, so K workers may retain up to K*Capacity
// entries in total), and the first cancellation wins.
func (t *tally) add(o tally) {
	t.entries += o.entries
	t.levels = sumLevels(t.levels, o.levels)
	if t.err == nil {
		t.err = o.err
	}
}
