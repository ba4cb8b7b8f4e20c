package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/queries"
)

// TestCountSequentialAllocs is the allocation guard on the shared
// driver, beside leapfrog's zero-alloc gate: a warm sequential no-cache
// count allocates the five objects it did when the count executor was
// its own monomorphic type (the intermediates, the cache manager and
// its two per-bag tables, the returned Levels) and nothing per run on
// top — the executor stays on the stack and the one-worker path builds
// no closure. A rise here shows up in the benchmark's allocs_per_req.
func TestCountSequentialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	db := dataset.PreferentialAttachment(100, 3, 41).DB(false)
	plan, err := AutoPlan(queries.Path(4), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{Disabled: true, Workers: 1}
	want := must(plan.CountParallelCtx(bg, pol)).Count // warm the runner pool
	if allocs := testing.AllocsPerRun(20, func() {
		if must(plan.CountParallelCtx(bg, pol)).Count != want {
			t.Error("count drifted across pooled runs")
		}
	}); allocs > 5 {
		t.Fatalf("sequential no-cache count allocates %.1f objects/run, want <= 5", allocs)
	}
}
