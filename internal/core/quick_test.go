package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/td"
	"repro/internal/yannakakis"
)

// TestRandomizedCrossEngineEquivalence is the repository's central
// property test: on random graphs and random pattern queries, CLFTJ
// under random cache policies, every enumerated TD, LFTJ, YTD and the
// naive oracle must all agree on counts — and CLFTJ evaluation must
// produce the oracle's exact tuple set.
func TestRandomizedCrossEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(15)
		g := dataset.ErdosRenyi(n, 0.1+rng.Float64()*0.2, rng.Int63())
		db := g.DB(rng.Intn(2) == 0)

		var q *cq.Query
		switch trial % 5 {
		case 0:
			q = queries.Path(3 + rng.Intn(3))
		case 1:
			q = queries.Cycle(3 + rng.Intn(3))
		case 2:
			q = queries.Random(4+rng.Intn(2), 0.4+rng.Float64()*0.3, rng.Int63())
		case 3:
			q = queries.Lollipop(3, 1+rng.Intn(2))
		default:
			q = queries.Clique(3 + rng.Intn(2))
		}

		want, err := naive.Count(q, db)
		if err != nil {
			t.Fatal(err)
		}

		// Every enumerated TD must produce the right count under a
		// random policy.
		for _, tree := range td.Enumerate(q, td.Options{}) {
			order := orderNamesFor(q, tree)
			plan, err := NewPlan(q, db, tree, order, nil)
			if err != nil {
				t.Fatalf("trial %d: NewPlan: %v\n%s", trial, err, tree)
			}
			pol := Policy{
				Capacity:         rng.Intn(20),
				SupportThreshold: rng.Intn(3),
				Eviction:         EvictionMode(rng.Intn(3)),
				Disabled:         rng.Intn(4) == 0,
			}
			if got := plan.Count(pol).Count; got != want {
				t.Fatalf("trial %d: CLFTJ(%+v) = %d, want %d\nquery %s\n%s",
					trial, pol, got, want, q, tree)
			}
			if got := plan.Eval(pol, func([]int64) bool { return true }).Emitted; got != want {
				t.Fatalf("trial %d: CLFTJ eval emitted %d, want %d\nquery %s\n%s",
					trial, got, want, q, tree)
			}
			// YTD over the same TD.
			e, err := yannakakis.New(q, db, tree, nil)
			if err != nil {
				t.Fatalf("trial %d: yannakakis: %v", trial, err)
			}
			if got := e.Count(); got != want {
				t.Fatalf("trial %d: YTD = %d, want %d\nquery %s\n%s", trial, got, want, q, tree)
			}
		}
	}
}

func orderNamesFor(q *cq.Query, tree *td.TD) []string {
	qvars := q.Vars()
	idx := tree.CompatibleOrder(len(qvars))
	out := make([]string, len(idx))
	for d, xi := range idx {
		out[d] = qvars[xi]
	}
	return out
}

// TestEvalNestedCacheHits drives evaluation on a query whose TD has a
// chain of cached bags, so cache hits occur while an ancestor is itself
// collecting a factorized set (shared substructure), and verifies the
// exact tuple set.
func TestEvalNestedCacheHits(t *testing.T) {
	g := dataset.PreferentialAttachment(40, 3, 77)
	db := g.DB(false)
	q := queries.Path(6)
	// Force the chain TD {x1,x2}-{x2,x3}-...-{x5,x6}: every non-root bag
	// is a cache site, nested five deep.
	bags := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}
	parent := []int{-1, 0, 1, 2, 3}
	tree := td.MustNew(bags, parent)
	plan, err := NewPlan(q, db, tree, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{{}, {SupportThreshold: 1}, {Capacity: 7}} {
		var got [][]int64
		plan.Eval(pol, func(mu []int64) bool {
			got = append(got, append([]int64(nil), mu...))
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("policy %+v: %d tuples, want %d", pol, len(got), len(want))
		}
		for i := range got {
			if relation.CompareTuples(got[i], want[i]) != 0 {
				t.Fatalf("policy %+v: tuple %d = %v, want %v", pol, i, got[i], want[i])
			}
		}
	}
}

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
