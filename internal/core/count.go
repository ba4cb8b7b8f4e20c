package core

import (
	"context"

	"repro/internal/leapfrog"
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
		leapfrog.RunSharded(workers, p.counters, func(i int, wc *stats.Counters) {
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
// product of the cached counts of the subtrees skipped on the way down,
// every arrival at depth n adds it to the total, and with no cache hits
// (f == 1 throughout) the procedure is exactly RJoin of Fig. 1. See the
// fold for the steps; only the arithmetic is spelled out here.
func (e *countExec) rjoin(d int, f int64) {
	p := e.plan
	if d == p.numVars {
		e.total += f
		return
	}
	v := p.ownerOf[d]
	entering := e.cm != nil && p.bagFirst[d] && v != p.root && p.cacheable[v]
	var slot int32
	if p.bagFirst[d] {
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
	if d == p.numVars-1 && !seek {
		// The leaf: a block of n matches adds f·n to the total and n to
		// the bag's count.
		block := e.block[:leafLen]
		frog, n := e.run.OpenLeaf(d, block)
		for n > 0 && !e.cancel.Poll() {
			e.total += f * int64(n)
			e.intrmd[v] += int64(n)
			if frog.AtEnd() {
				break
			}
			n = frog.NextBatch(block)
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
			if p.bagLast[d] {
				prod := int64(1)
				for _, c := range p.children[v] {
					if prod *= e.intrmd[c]; prod == 0 {
						break
					}
				}
				e.intrmd[v] += prod
			}
			if !seek {
				ok = frog.Next()
			}
		}
	}
	e.run.CloseDepth(d)
	if entering {
		e.store(v, slot)
	}
}
