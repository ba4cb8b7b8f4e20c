package core

import (
	"reflect"
	"testing"

	"repro/internal/queries"
	"repro/internal/relation"
)

// alwaysEmpty returns the depths d > 0 that were attempted at least
// once and came up empty on every attempt: the early-termination levels,
// whose variable never extended any assignment. Depth 0 is excluded: it
// is opened once per worker, and an empty root domain empties the
// whole result.
func alwaysEmpty(levels []LevelStat) []int {
	var out []int
	for d, l := range levels {
		if d > 0 && l.Attempts > 0 && l.Empties == l.Attempts {
			out = append(out, d)
		}
	}
	return out
}

// TestAlwaysEmptyLevels pins the per-depth intersection tallies on a
// triangle query over a triangle-free graph: every (x, y) edge reaches
// depth 2 and finds the z-intersection empty, so depth 2 must report
// all-empty while the shallower depths (which do extend assignments)
// must not.
func TestAlwaysEmptyLevels(t *testing.T) {
	db := relation.NewDB(relation.MustNew("E", 2, [][]int64{{1, 2}, {2, 3}}))
	plan, err := AutoPlan(queries.Clique(3), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := plan.Count(Policy{})
	if res.Count != 0 {
		t.Fatalf("triangle count over a 2-path = %d, want 0", res.Count)
	}
	if len(res.Levels) != 3 {
		t.Fatalf("Levels = %+v, want 3 depths", res.Levels)
	}
	for d, l := range res.Levels {
		if l.Attempts == 0 {
			t.Errorf("depth %d never attempted: %+v", d, res.Levels)
		}
	}
	if got := alwaysEmpty(res.Levels); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("alwaysEmpty(%+v) = %v, want [2]", res.Levels, got)
	}

	// The parallel merge must report the same totals as the sequential
	// scan at every depth past the root: shards partition the root
	// domain, and per-depth tallies are summed exactly. (Depth 0 is
	// opened once per worker, so its attempt count scales with the
	// worker count — which is why alwaysEmpty excludes it.)
	par := must(plan.CountParallelCtx(bg, Policy{Workers: 4}))
	if len(par.Levels) != len(res.Levels) ||
		!reflect.DeepEqual(par.Levels[1:], res.Levels[1:]) {
		t.Fatalf("parallel Levels %+v differ from sequential %+v past depth 0", par.Levels, res.Levels)
	}
	if got := alwaysEmpty(par.Levels); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("parallel alwaysEmpty = %v, want [2]", got)
	}

	// A satisfiable query has no always-empty level.
	db2 := relation.NewDB(relation.MustNew("E", 2, [][]int64{{1, 2}, {2, 3}, {1, 3}}))
	plan2, err := AutoPlan(queries.Clique(3), db2, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res2 := plan2.Count(Policy{})
	if res2.Count != 1 {
		t.Fatalf("triangle count = %d, want 1", res2.Count)
	}
	if got := alwaysEmpty(res2.Levels); got != nil {
		t.Fatalf("alwaysEmpty on a satisfiable query = %v, want none", got)
	}
}
