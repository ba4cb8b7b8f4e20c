package leapfrog

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/stats"
)

// This file parallelizes LFTJ by sharding the root trie level: the first
// variable's matches form the outermost loop of the join and successive
// root values are completely independent, so the domain is enumerated
// once (a cheap k-way intersection scan) and dealt to K workers
// round-robin. Each worker owns a full Runner — private cursors, frogs,
// assignment buffer and Counters — over the shared immutable tries, and
// re-seeks the root frog to its assigned values with SeekGE (values
// ascend within a shard, so the forward-only seek contract holds). See
// DESIGN.md, "Parallel execution".

// RootKeys enumerates the matches of the join's first variable (the
// intersection of the participating atoms' root trie levels), in
// ascending order. The scan accounts into c (may be nil). This is the
// shard domain of the parallel engines.
func RootKeys(inst *Instance, c *stats.Counters) []int64 {
	if inst.empty || inst.NumVars() == 0 {
		return nil
	}
	r := NewRunnerCounters(inst, c)
	var keys []int64
	frog, ok := r.OpenDepth(0)
	for ok {
		keys = append(keys, frog.Key())
		ok = frog.Next()
	}
	r.CloseDepth(0)
	r.Release()
	return keys
}

// ResolveWorkers normalizes a worker-count knob: values <= 0 mean "use
// every core" (runtime.GOMAXPROCS), anything else is taken as given.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ShardDomain resolves a worker-count knob against the instance's root
// domain: it normalizes workers (<= 0: one per core), enumerates the
// root keys (accounting into sink), and clamps the worker count to the
// domain size. A returned count of 1 means the caller should take its
// sequential path — the knob asked for it, or there are too few root
// values to shard (including none; the sequential engines handle the
// empty result). Every parallel engine derives its shards from this one
// helper so the sharding invariants cannot diverge.
func ShardDomain(inst *Instance, workers int, sink *stats.Counters) ([]int64, int) {
	workers = ResolveWorkers(workers)
	if workers <= 1 {
		return nil, 1
	}
	keys := RootKeys(inst, sink)
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers <= 1 {
		return nil, 1
	}
	return keys, workers
}

// RunSharded is the shard orchestration shared by every parallel engine
// (this package's ParallelCount and core's *ParallelCtx entry points): it
// spawns one goroutine per worker, hands each a private Counters when
// sink is non-nil (nil sink: accounting disabled, workers receive nil),
// waits for all of them, and merges the per-worker accounting into sink
// in worker order, so the combined totals are exact without hot-path
// atomics.
func RunSharded(workers int, sink *stats.Counters, body func(w int, wc *stats.Counters)) {
	ctrs := make([]*stats.Counters, workers)
	if sink != nil {
		for w := range ctrs {
			ctrs[w] = &stats.Counters{}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, wc *stats.Counters) {
			defer wg.Done()
			body(w, wc)
		}(w, ctrs[w])
	}
	wg.Wait()
	sink.Merge(ctrs...)
}

// ParallelCount counts q(D) with vanilla LFTJ sharded over the given
// number of worker goroutines (<= 0: one per core). The result is
// bit-identical to Count: int64 addition is associative, so the shard
// partials sum to the sequential total regardless of interleaving.
// Accounting is exact: workers count into private Counters that are
// merged into the instance's sink after the join.
func ParallelCount(inst *Instance, workers int) int64 {
	n, _ := ParallelCountCtx(context.Background(), inst, workers)
	return n
}

// ParallelCountCtx is ParallelCount with cooperative cancellation:
// every worker polls ctx through its own Canceler (private tick state,
// like its private Counters) and stops both its per-shard seek loop and
// the recursive scan under each root value when ctx trips, so all
// workers drain within one polling period and the call returns ctx's
// error with no goroutine left behind. A non-cancellable ctx runs the
// exact ParallelCount code path.
func ParallelCountCtx(ctx context.Context, inst *Instance, workers int) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if inst.empty {
		return 0, nil
	}
	keys, workers := ShardDomain(inst, workers, inst.counters)
	if workers <= 1 {
		return CountCtx(ctx, inst)
	}
	totals := make([]int64, workers)
	RunSharded(workers, inst.counters, func(w int, wc *stats.Counters) {
		r := NewRunnerCounters(inst, wc)
		r.SetCanceler(NewCanceler(ctx))
		frog, ok := r.OpenDepth(0)
		var total int64
		for i := w; ok && i < len(keys) && !r.cancel.Poll(); i += workers {
			if !frog.SeekGE(keys[i]) {
				break
			}
			r.mu[0] = keys[i]
			total += r.countFrom(1)
		}
		r.CloseDepth(0)
		r.Release()
		totals[w] = total
	})
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var total int64
	for _, t := range totals {
		total += t
	}
	return total, nil
}
