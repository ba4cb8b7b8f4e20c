package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/queries"
)

// TestCountSequentialAllocs is the allocation guard on the shared
// driver, beside leapfrog's zero-alloc gate: a warm sequential count
// allocates its intermediates and the returned Levels and nothing per
// run on top — the executor stays on the stack, the one-worker path
// builds no closure, a no-cache run takes no cache manager at all and a
// cached one takes its manager, tables included, from the pool. A rise
// here shows up in the benchmark's allocs_per_req.
func TestCountSequentialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	db := dataset.PreferentialAttachment(100, 3, 41).DB(false)
	plan, err := AutoPlan(queries.Path(4), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"nocache", Policy{Disabled: true}},
		{"cached", Policy{}},
		{"lru256", Policy{Capacity: 256, Eviction: EvictLRU}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := tc.policy
			pol.Workers = 1
			// Warm the runner pool and, twice over, the manager pool: the
			// first run grows the tables, the second finds them grown.
			want := must(plan.CountParallelCtx(bg, pol)).Count
			must(plan.CountParallelCtx(bg, pol))
			if allocs := testing.AllocsPerRun(20, func() {
				if must(plan.CountParallelCtx(bg, pol)).Count != want {
					t.Error("count drifted across pooled runs")
				}
			}); allocs > 2 {
				t.Fatalf("warm sequential count allocates %.1f objects/run, want <= 2", allocs)
			}
		})
	}
}
