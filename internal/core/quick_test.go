package core

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/queries"
)

// TestEvalEarlyStopUnderCaching verifies that stopping the consumer
// mid-expansion (inside a cache-hit expansion) terminates cleanly.
func TestEvalEarlyStopUnderCaching(t *testing.T) {
	g := dataset.PreferentialAttachment(60, 4, 13)
	db := g.DB(false)
	q := queries.Path(5)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := plan.Count(Policy{}).Count
	if total < 100 {
		t.Skipf("result too small (%d) for the early-stop test", total)
	}
	for _, stop := range []int64{1, 7, total / 2} {
		var n int64
		res := plan.Eval(Policy{}, func([]int64) bool {
			n++
			return n < stop
		})
		if n != stop {
			t.Fatalf("stop=%d: emitted %d", stop, n)
		}
		if res.Emitted != stop {
			t.Fatalf("stop=%d: result reports %d emitted", stop, res.Emitted)
		}
	}
}

// TestCountDeterministic ensures repeated runs over one plan are
// bit-identical (fresh caches per execution).
func TestCountDeterministic(t *testing.T) {
	g := dataset.PreferentialAttachment(80, 3, 5)
	db := g.DB(false)
	plan, err := AutoPlan(queries.Cycle(4), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := plan.Count(Policy{Capacity: 16})
	for i := 0; i < 3; i++ {
		again := plan.Count(Policy{Capacity: 16})
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d differs: %+v vs %+v", i, again, first)
		}
	}
}
