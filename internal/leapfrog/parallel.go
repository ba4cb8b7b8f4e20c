package leapfrog

import (
	"runtime"
	"sync"

	"repro/internal/stats"
)

// This file holds the shard primitives of the one parallel trie-join
// executor, core's driver: the first variable's matches form the
// outermost loop of the join and successive root values are completely
// independent, so the domain is enumerated once (a cheap k-way
// intersection scan) and dealt to K workers round-robin. Each worker
// owns a full Runner — private cursors, frogs, assignment buffer and
// Counters — over the shared immutable tries, and re-seeks the root frog
// to its assigned values with SeekGE (values ascend within a shard, so
// the forward-only seek contract holds). See DESIGN.md, "Parallel
// execution".

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

// resolveWorkers normalizes a worker-count knob: values <= 0 mean "use
// every core" (runtime.GOMAXPROCS), anything else is taken as given.
func resolveWorkers(workers int) int {
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
	workers = resolveWorkers(workers)
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

// RunSharded is the shard orchestration of core's driver, under every
// multi-worker count and aggregate — LFTJ's included, which is the
// one-bag plan with caching disabled; an enumeration never shards. It
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
