package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/queries"
)

// TestCountSequentialAllocs is the allocation guard on the shared
// driver, beside leapfrog's zero-alloc gate: a warm sequential count
// allocates its intermediates and the returned Levels and nothing per
// run on top — the executor, leaf block included, stays on the stack,
// the one-worker path builds no closure, a no-cache run takes no cache
// manager at all and a cached one takes its manager, tables included,
// from the pool. The generic fold is held to the same two objects by a
// weighted sum, as the server runs it. A warm sequential no-cache eval,
// and the one-worker stream that is the same scan, allocate their
// per-bag state and the Levels. A cached eval also allocates the
// factorized entries it stores (1 512 objects for the 543 entries of
// this 4-path's cost-model plan, pinned so the bound stays calibrated) and nothing per cache hit: the continuation a hit expands its
// cached set into stays on the stack, where escaping would add an object
// for each of the run's 1 431 hits. A rise here shows up in the
// benchmark's allocs_per_req.
func TestCountSequentialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	db := dataset.PreferentialAttachment(100, 3, 41).DB(false)
	tree, order, err := CostSelect(queries.Path(4), db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(queries.Path(4), db, tree, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := func(pol Policy) int64 { return must(plan.CountParallelCtx(bg, pol)).Count }
	discard := func([]int64) bool { return true }
	for _, tc := range []struct {
		name   string
		policy Policy
		run    func(Policy) int64
		max    float64
	}{
		{"nocache", Policy{Disabled: true}, count, 2},
		{"cached", Policy{}, count, 2},
		{"lru256", Policy{Capacity: 256, Eviction: EvictLRU}, count, 2},
		{"aggregate", Policy{}, func(pol Policy) int64 {
			sum := must(AggregateParallelCtx(bg, plan, pol, SumProductSemiring(), func(_ int, v int64) float64 { return float64(v) }))
			return int64(math.Float64bits(sum))
		}, 2},
		{"eval", Policy{Disabled: true}, func(pol Policy) int64 {
			return must(plan.EvalParallelCtx(bg, pol, discard)).Emitted
		}, 2},
		{"cached eval", Policy{}, func(pol Policy) int64 {
			return must(plan.EvalParallelCtx(bg, pol, discard)).Emitted
		}, 1600},
		{"stream", Policy{Disabled: true}, func(pol Policy) int64 {
			return must(plan.EvalStreamCtx(bg, pol, 1, discard)).Emitted
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := tc.policy
			pol.Workers = 1
			// Warm the runner pool and, twice over, the manager pool: the
			// first run grows the tables, the second finds them grown.
			want := tc.run(pol)
			tc.run(pol)
			if allocs := testing.AllocsPerRun(20, func() {
				if tc.run(pol) != want {
					t.Error("result drifted across pooled runs")
				}
			}); allocs > tc.max {
				t.Fatalf("warm sequential run allocates %.1f objects, want <= %.0f", allocs, tc.max)
			}
		})
	}
}
