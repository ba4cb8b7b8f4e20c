package core

import (
	"context"

	"repro/internal/stats"
)

// This file is CachedTJCount (Fig. 2) as its own executor: the fold of
// fold.go at (ℕ, +, ×) with unit weights, over int64 with +, * and == 0
// written inline, so that no key of the scan calls through a semiring's
// function fields. It shares the fold's per-worker state, cache probe and
// store; Aggregate over CountSemiring with UnitWeight runs the generic
// fold and must charge exactly what this executor charges.

// CountResult reports a cached count execution.
type CountResult struct {
	// Count is |q(D)|.
	Count int64
	// CachedEntries is the number of intermediate results resident in the
	// caches at the end of the run (summed over workers).
	CachedEntries int
}

// Count runs CachedTJCount (Fig. 2) over the plan under the given policy
// and returns |q(D)|: CountParallelCtx on one worker, never cancelled.
func (p *Plan) Count(policy Policy) CountResult {
	policy.Workers = 1
	res, _ := p.CountParallelCtx(context.Background(), policy)
	return res
}

// CountParallelCtx runs CachedTJCount — the count executor, which
// computes what AggregateParallelCtx over CountSemiring with UnitWeight
// computes, charge for charge — sharded over policy.Workers goroutines
// (0: one per core; 1: the sequential scan). The count is bit-identical
// under every worker count and policy: per-worker caches only change
// which subtrees are recomputed rather than reused, and a cached
// intermediate always equals what recomputation would produce.
//
// Cancellation is cooperative: every worker polls ctx through its own
// leapfrog.Canceler once per leapfrog.CancelCheckEvery iterator advances
// and unwinds promptly when ctx is cancelled or its deadline passes, so
// all workers drain within one polling period and the call returns
// ctx's error and a zero result with no goroutine left behind. Nothing
// is cached from a cancelled scan: a partial intermediate must never be
// mistaken for the subtree's true count. A non-cancellable ctx
// (context.Background) pays one nil check per advance.
func (p *Plan) CountParallelCtx(ctx context.Context, policy Policy) (CountResult, error) {
	return p.count(ctx, policy, nil)
}

// count is CountParallelCtx over the caches in cm (nil: pooled ones per
// worker) — the seam through which an owner other than the pool lends
// an execution its caches. It drives the workers as fold does.
func (p *Plan) count(ctx context.Context, policy Policy, cm *manager[int64]) (CountResult, error) {
	keys, workers, err := p.shards(ctx, policy.Workers)
	if workers == 0 {
		return CountResult{}, err
	}
	var (
		n int64
		t tally
	)
	if workers == 1 {
		e := countExec{newFoldState(ctx, p, policy, cm, shard{}, p.counters, int64(0))}
		e.rjoin(0, 1)
		n, t = e.total, e.finish()
	} else {
		totals := make([]int64, workers)
		parts := make([]tally, workers)
		runSharded(workers, p.counters, func(i int, wc *stats.Counters) {
			e := countExec{newFoldState(ctx, p, policy, nil, shard{keys, i, workers}, wc, int64(0))}
			e.rjoin(0, 1)
			totals[i], parts[i] = e.total, e.finish()
		})
		for i := range totals {
			n += totals[i]
			t.add(parts[i])
		}
	}
	if t.err != nil {
		return CountResult{}, t.err
	}
	return CountResult{Count: n, CachedEntries: t.entries}, nil
}

// countExec is one worker's count.
type countExec struct {
	foldState[int64]
}

// rjoin is foldExec.rjoin at CountSemiring with unit weights: f is the
// product of the cached counts of the subtrees skipped and the tails
// counted on the way down, every arrival at depth n adds it to the total,
// and with caching off (f == 1 above the leaf) the procedure is exactly
// RJoin of Fig. 1. The fold documents the steps.
func (e *countExec) rjoin(d int, f int64) {
	p := e.plan
	if d == p.numVars {
		e.total += f
		return
	}
	v := p.ownerOf[d]
	entering := e.cm != nil && p.is(d, bagFirst) && v != p.root && p.cacheable[v]
	var slot int32
	if p.is(d, bagFirst) {
		e.intrmd[v] = 0
	}
	if entering {
		val, ref, hit := e.probe(v)
		slot = ref
		if hit {
			e.intrmd[v] = val
			if val != 0 {
				e.rjoin(p.subtreeEnd[v]+1, f*val)
			}
			return
		}
	}

	seek := d == 0 && e.keys != nil
	if !seek && (d == p.numVars-1 || e.cm != nil && p.is(d, tailFirst)) {
		// The bag's independent tail, depths d..L: the depths after L see
		// none of it, so its n bindings are counted, the rest of the join
		// runs once with n in its factor, and each binding adds the
		// children's product to the bag's count. The deepest depth is
		// always such a tail — its bag's last, with no children — so the
		// leaf drains a block at a time even when nothing is cached.
		last := p.lastVar[v]
		if n := e.countTail(d, last); n > 0 {
			e.rjoin(last+1, f*n)
			e.settle(v, n)
		}
	} else {
		frog, ok := e.run.OpenDepth(d)
		for i := e.start; ok && !e.cancel.Poll(); i += e.stride {
			if !seek {
				e.mu[d] = frog.Key()
			} else if i < len(e.keys) && frog.SeekGE(e.keys[i]) {
				e.mu[d] = e.keys[i]
			} else {
				break
			}
			e.rjoin(d+1, f)
			if p.is(d, bagLast) {
				e.settle(v, 1)
			}
			if !seek {
				ok = frog.Next()
			}
		}
		e.run.CloseDepth(d)
	}
	if entering {
		e.store(v, slot)
	}
}

// settle is foldExec.settle at CountSemiring: it adds n times the
// children's counts to bag v's.
func (e *countExec) settle(v int, n int64) {
	for _, c := range e.plan.children[v] {
		if n *= e.intrmd[c]; n == 0 {
			return
		}
	}
	e.intrmd[v] += n
}
