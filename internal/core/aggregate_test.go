package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync/atomic"
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

// TestAggregateCountCoincidesWithCount is the differential between the
// two fold executors: CountParallelCtx runs the count executor, and the
// fold at CountSemiring with unit weights must agree with it on every
// fixed and random shape, every cache regime (bounded under FIFO, LRU and
// EvictNone included), worker counts 1, 2 and 8 and block sizes 1, 7 and
// blockLen — same value, bit-identical stats.Counters and the same
// resident entries — and the enumeration delivers exactly that many rows.
func TestAggregateCountCoincidesWithCount(t *testing.T) {
	pa := dataset.PreferentialAttachment(60, 3, 21).DB(false)
	shapes := []struct {
		name string
		q    *cq.Query
		db   *relation.DB
	}{
		{"4-path", queries.Path(4), pa},
		{"4-cycle", queries.Cycle(4), pa},
		{"lollipop-3-2", queries.Lollipop(3, 2), pa},
	}
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 5; trial++ {
		db := dataset.ErdosRenyi(10+rng.Intn(10), 0.15+rng.Float64()*0.2, rng.Int63()).DB(rng.Intn(2) == 0)
		q := diffQuery(trial, rng)
		shapes = append(shapes, struct {
			name string
			q    *cq.Query
			db   *relation.DB
		}{fmt.Sprintf("random %d: %s", trial, q), q, db})
	}
	sr, fsr := CountSemiring(), SumProductSemiring()
	for _, sh := range shapes {
		plan, err := AutoPlan(sh.q, sh.db, AutoOptions{})
		if err != nil {
			t.Fatalf("%s: AutoPlan: %v", sh.name, err)
		}
		want := must(naive.Count(sh.q, sh.db))
		for _, pol := range coincidePolicies {
			for _, pol.Workers = range []int{1, 2, 8} {
				for _, bl := range []int{1, 7, blockLen} {
					atLeafLen(bl, func() {
						var cc, ca stats.Counters
						cnt := must(plan.WithCounters(&cc).CountParallelCtx(bg, pol))
						agg, tl, err := fold(bg, plan.WithCounters(&ca), pol, sr, UnitWeight(sr), nil)
						if err != nil {
							t.Fatal(err)
						}
						if cnt.Count != want || agg != want {
							t.Fatalf("%s %+v len=%d: count %d, aggregate %d, want %d", sh.name, pol, bl, cnt.Count, agg, want)
						}
						if cc != ca {
							t.Fatalf("%s %+v len=%d: counters diverge\ncount:     %+v\naggregate: %+v", sh.name, pol, bl, cc, ca)
						}
						if cnt.CachedEntries != tl.entries {
							t.Fatalf("%s %+v len=%d: count leaves %d entries, aggregate %d",
								sh.name, pol, bl, cnt.CachedEntries, tl.entries)
						}
						// Unit weights over another semiring count the same tuples.
						if f := must(AggregateParallelCtx(bg, plan, pol, fsr, UnitWeight(fsr))); f != float64(want) {
							t.Fatalf("%s %+v: sum-product unit aggregate %g, want %d", sh.name, pol, f, want)
						}
						var rows int64
						ev := must(plan.EvalParallelCtx(bg, pol, func([]int64) bool { rows++; return true }))
						if rows != want || ev.Emitted != want {
							t.Fatalf("%s %+v: eval delivered %d (reported %d), want %d", sh.name, pol, rows, ev.Emitted, want)
						}
					})
				}
			}
		}
	}
}

// coincidePolicies are the cache regimes the two fold executors are held
// to each other under: unbounded, off, bounded under each eviction mode,
// and support-gated.
var coincidePolicies = []Policy{
	{},
	{Disabled: true},
	{Capacity: 4},
	{Capacity: 4, Eviction: EvictLRU},
	{Capacity: 4, Eviction: EvictNone},
	{SupportThreshold: 1},
}

// tripCtx reports itself cancelled from the first Err call past its
// allowance on: the prologue, every canceler's construction and every
// CancelCheckEvery-th poll each make one call, so a sequential run is cut
// at the same poll of the same scan every time.
type tripCtx struct {
	context.Context
	left atomic.Int64
}

func newTripCtx(allow int64) *tripCtx {
	c := &tripCtx{Context: context.Background()}
	c.left.Store(allow)
	return c
}

func (c *tripCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *tripCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// storedValues reads every stored (bag, key) → value out of a manager
// (nil: caching off, nothing stored).
func storedValues(m *manager[int64]) map[[2]Key]int64 {
	out := make(map[[2]Key]int64)
	if m == nil {
		return out
	}
	for v := range m.tables {
		tb := &m.tables[v]
		for i := range tb.slab {
			if s := &tb.slab[i]; s.cell >= 0 && s.cost > 0 {
				out[[2]Key{{int64(v)}, s.key}] = s.val
			}
		}
	}
	return out
}

// TestCountAggregateCancelledAlike is the cancellation half of the
// differential: cut at the same poll, the count executor and the fold at
// CountSemiring with unit weights both return the context's error, charge
// identical counters and leave identical caches behind, and every value
// either left is the subtree's true count — what a completed unbounded
// run stores for that key — so no scan cut short stored its partial
// count. Sharded runs cut mid-scan return the error from both too.
func TestCountAggregateCancelledAlike(t *testing.T) {
	db := dataset.TriadicPA(700, 6, 0.5, 33).DB(false)
	sr := CountSemiring()
	for _, q := range []*cq.Query{queries.Path(4), queries.Lollipop(3, 2)} {
		plan := must(AutoPlan(q, db, AutoOptions{}))
		full := acquireManager[int64](Policy{}, plan, nil, nil)
		want := must(plan.count(bg, Policy{Workers: 1}, full)).Count
		truth := storedValues(full)
		for _, pol := range coincidePolicies {
			for _, allow := range []int64{1, 2, 5, 12} {
				var cc, ca stats.Counters
				pc, pa := plan.WithCounters(&cc), plan.WithCounters(&ca)
				cmc := acquireManager[int64](pol, pc, &cc, nil)
				cma := acquireManager[int64](pol, pa, &ca, nil)
				pol.Workers = 1
				_, errc := pc.count(newTripCtx(allow), pol, cmc)
				_, _, erra := fold(newTripCtx(allow), pa, pol, sr, nil, cma)
				if !errors.Is(errc, context.Canceled) || !errors.Is(erra, context.Canceled) {
					t.Fatalf("%s %+v allow=%d: count returned %v, aggregate %v; want both cancelled (count %d)", q, pol, allow, errc, erra, want)
				}
				if cc != ca {
					t.Fatalf("%s %+v allow=%d: counters diverge\ncount:     %+v\naggregate: %+v", q, pol, allow, cc, ca)
				}
				got, gota := storedValues(cmc), storedValues(cma)
				if !maps.Equal(got, gota) || cmc.Entries() != cma.Entries() {
					t.Fatalf("%s %+v allow=%d: count left %d entries, aggregate %d", q, pol, allow, cmc.Entries(), cma.Entries())
				}
				for k, val := range got {
					if tv, ok := truth[k]; !ok || tv != val {
						t.Fatalf("%s %+v allow=%d: bag %d key %v holds %d, a completed run stores %d (%v)", q, pol, allow, k[0][0], k[1], val, tv, ok)
					}
				}
				cmc.release()
				cma.release()
				for _, pol.Workers = range []int{2, 8} {
					_, errc := plan.CountParallelCtx(newTripCtx(allow+int64(pol.Workers)), pol)
					_, erra := AggregateParallelCtx(newTripCtx(allow+int64(pol.Workers)), plan, pol, sr, nil)
					if !errors.Is(errc, context.Canceled) || !errors.Is(erra, context.Canceled) {
						t.Fatalf("%s %+v allow=%d: count returned %v, aggregate %v; want both cancelled", q, pol, allow, errc, erra)
					}
				}
			}
		}
		full.release()
	}
}

// aggregatePolicies is pols on one worker, then the regimes in which a
// re-entered bag could miss — a bounded LRU and a support threshold of 2
// — and a sharded run.
func aggregatePolicies(pols []Policy) []Policy {
	pols = append(pols, Policy{Capacity: 16, Eviction: EvictLRU}, Policy{SupportThreshold: 2})
	for i := range pols {
		pols[i].Workers = 1
	}
	return append(pols, Policy{Workers: 2})
}

func TestAggregateSumProduct(t *testing.T) {
	plan, q, db := aggregateFixtures(t)
	sr := SumProductSemiring()
	// Weight: each variable value contributes (1 + v mod 3) / 2.
	w := func(d int, v int64) float64 { return (1 + float64(v%3)) / 2 }
	want := naiveAggregate(t, q, db, plan.Order(), sr, w)
	for _, pol := range aggregatePolicies([]Policy{{}, {Disabled: true}, {SupportThreshold: 1}}) {
		got := must(AggregateParallelCtx(bg, plan, pol, sr, w))
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
	for _, pol := range aggregatePolicies([]Policy{{}, {Disabled: true}, {Capacity: 8}}) {
		got := must(AggregateParallelCtx(bg, plan, pol, sr, w))
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
