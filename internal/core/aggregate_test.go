package core

import (
	"math"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
)

// naiveAggregate folds the oracle's result set with per-variable weights
// reordered from q.Vars() to the plan's order.
func naiveAggregate[T any](t *testing.T, q *cq.Query, db *relation.DB, order []string,
	sr Semiring[T], w VarWeight[T]) T {
	t.Helper()
	tuples, err := naive.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	qvars := q.Vars()
	depthOf := make(map[string]int)
	for d, name := range order {
		depthOf[name] = d
	}
	total := sr.Zero
	for _, tup := range tuples {
		prod := sr.One
		for i, name := range qvars {
			prod = sr.Mul(prod, w(depthOf[name], tup[i]))
		}
		total = sr.Add(total, prod)
	}
	return total
}

func aggregateFixtures(t *testing.T) (*Plan, *cq.Query, *relation.DB) {
	t.Helper()
	g := dataset.PreferentialAttachment(60, 3, 21)
	db := g.DB(false)
	q := queries.Path(4)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan, q, db
}

// TestAggregateCountCoincidesWithCount pins the collapse of the count
// executor into the fold: over every shape, cache policy, worker count
// and block size, CountParallelCtx is AggregateParallelCtx over
// CountSemiring with unit weights — same value, bit-identical
// stats.Counters — and both enumerations deliver exactly that many rows.
func TestAggregateCountCoincidesWithCount(t *testing.T) {
	db := dataset.PreferentialAttachment(60, 3, 21).DB(false)
	sr, fsr := CountSemiring(), SumProductSemiring()
	for _, sh := range []struct {
		name string
		q    *cq.Query
	}{
		{"4-path", queries.Path(4)},
		{"4-cycle", queries.Cycle(4)},
		{"lollipop-3-2", queries.Lollipop(3, 2)},
	} {
		plan, err := AutoPlan(sh.q, db, AutoOptions{})
		if err != nil {
			t.Fatalf("%s: AutoPlan: %v", sh.name, err)
		}
		want, err := naive.Count(sh.q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{{}, {Disabled: true}, {Capacity: 4}, {SupportThreshold: 1}} {
			for _, pol.Workers = range []int{1, 2, 3} {
				for _, bl := range []int{1, 7, blockLen} {
					atLeafLen(bl, func() {
						var cc, ca stats.Counters
						cnt := must(plan.WithCounters(&cc).CountParallelCtx(bg, pol))
						agg := must(AggregateParallelCtx(bg, plan.WithCounters(&ca), pol, sr, UnitWeight(sr)))
						if cnt.Count != want || agg != want {
							t.Fatalf("%s %+v len=%d: count %d, aggregate %d, want %d", sh.name, pol, bl, cnt.Count, agg, want)
						}
						if cc != ca {
							t.Fatalf("%s %+v: counters diverge\ncount:     %+v\naggregate: %+v", sh.name, pol, cc, ca)
						}
						// Unit weights over another semiring count the same tuples.
						if f := must(AggregateParallelCtx(bg, plan, pol, fsr, UnitWeight(fsr))); f != float64(want) {
							t.Fatalf("%s %+v: sum-product unit aggregate %g, want %d", sh.name, pol, f, want)
						}
						var rows, streamed int64
						ev := must(plan.EvalParallelCtx(bg, pol, func([]int64) bool { rows++; return true }))
						st := must(plan.EvalStreamCtx(bg, pol, pol.Workers, func([]int64) bool { streamed++; return true }))
						if rows != want || ev.Emitted != want || streamed != want || st.Emitted != want {
							t.Fatalf("%s %+v: eval delivered %d (reported %d), stream %d (reported %d), want %d",
								sh.name, pol, rows, ev.Emitted, streamed, st.Emitted, want)
						}
					})
				}
			}
		}
	}
}

func TestAggregateSumProduct(t *testing.T) {
	plan, q, db := aggregateFixtures(t)
	sr := SumProductSemiring()
	// Weight: each variable value contributes (1 + v mod 3) / 2.
	w := func(d int, v int64) float64 { return (1 + float64(v%3)) / 2 }
	want := naiveAggregate(t, q, db, plan.Order(), sr, w)
	for _, pol := range []Policy{{}, {Disabled: true}, {SupportThreshold: 1}} {
		got := Aggregate(plan, pol, sr, w)
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("policy %+v: sum-product %g, want %g", pol, got, want)
		}
	}
}

func TestAggregateTropicalMinWeight(t *testing.T) {
	plan, q, db := aggregateFixtures(t)
	sr := TropicalSemiring()
	// Weight of a tuple = sum of node ids; Aggregate = cheapest witness.
	w := func(d int, v int64) float64 { return float64(v) }
	want := naiveAggregate(t, q, db, plan.Order(), sr, w)
	for _, pol := range []Policy{{}, {Disabled: true}, {Capacity: 8}} {
		got := Aggregate(plan, pol, sr, w)
		if got != want {
			t.Errorf("policy %+v: tropical %g, want %g", pol, got, want)
		}
	}
}

func TestAggregateOnCycles(t *testing.T) {
	g := dataset.ErdosRenyi(25, 0.18, 31)
	db := g.DB(false)
	q := queries.Cycle(5)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sr := SumProductSemiring()
	w := func(d int, v int64) float64 { return 1 + float64(v%5)/7 }
	want := naiveAggregate(t, q, db, plan.Order(), sr, w)
	got := Aggregate(plan, Policy{}, sr, w)
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("cycle sum-product %g, want %g", got, want)
	}
}

func TestAggregateEmptyResult(t *testing.T) {
	db := relation.NewDB(
		relation.MustNew("E", 2, [][]int64{{1, 2}}),
		relation.MustNew("F", 2, nil),
	)
	q := cq.New(cq.NewAtom("E", "a", "b"), cq.NewAtom("F", "b", "c"))
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sr := CountSemiring()
	if got := Aggregate(plan, Policy{}, sr, UnitWeight(sr)); got != 0 {
		t.Fatalf("aggregate over empty result = %d", got)
	}
}
