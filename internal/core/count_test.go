package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
)

// innerCase is a query TestInnerCountCharges runs, with its plan.
type innerCase struct {
	queryCase
	plan *Plan
}

// innerCountCases are the queries TestInnerCountCharges runs on
// AutoPlan's plans: the parallel shapes, limitQuery's generator over
// small random graphs, a disconnected query (its second bag's adhesion
// is empty), a constant atom and a repeated variable. AutoPlan gives none
// of them a cached bag with both a child and a tail, so one plan is
// written out: {x,y} ← {y,z,t} ← {z,w}, whose middle bag's tail t lies
// past its child's adhesion z.
func innerCountCases() []innerCase {
	var cases []innerCase
	auto := func(tc queryCase) {
		cases = append(cases, innerCase{tc, must(AutoPlan(tc.q, tc.db, AutoOptions{}))})
	}
	for _, tc := range parallelShapes() {
		auto(tc)
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(14)
		db := dataset.ErdosRenyi(n, 0.15+rng.Float64()*0.25, rng.Int63()).DB(rng.Intn(2) == 0)
		q := limitQuery(trial, rng)
		auto(queryCase{fmt.Sprintf("trial %d %s", trial, q), q, db})
	}
	g := dataset.TriadicPA(90, 3, 0.5, 7)
	loops := relation.NewBuilder("L", 2)
	for v := int64(0); v < int64(g.N); v += 3 {
		loops.Add(v, v)
		loops.Add(v, v+1)
	}
	db := relation.NewDB(g.EdgeRelation("E", false), loops.Build())
	for _, text := range []string{
		"E(x,y), E(z,w)",
		"E(5,y), E(y,z), E(y,w)",
		"E(x,y), E(y,z), L(z,z)",
	} {
		auto(queryCase{text, cq.MustParse(text), db})
	}
	q := cq.MustParse("E(x,y), E(y,z), E(z,t), E(z,w)")
	tree := td.MustNew([][]int{{0, 1}, {1, 2, 3}, {2, 4}}, []int{-1, 0, 1})
	plan := must(NewPlan(q, db, tree, []string{"x", "y", "z", "t", "w"}, nil))
	return append(cases, innerCase{queryCase{"middle tail " + q.String(), q, db}, plan})
}

// TestInnerCountCharges pins what counting a bag's independent tail
// costs. On one worker with unbounded caches the count executor and the
// unit-weight fold charge the enumeration's trie accesses, misses and
// inserts, keep one entry per insert and probe no more often than it:
// the skipped re-entries were cache hits. A capped eval that counts past
// limit 1 or 7 keeps the same three charges and probes no more often.
// With caching off they charge the enumeration's trie accesses, which is
// then plain LFTJ. Under bounded and support-gated policies they count
// |q(D)| at every worker count and, on one worker, charge no more trie
// accesses than the enumeration. Under every policy the weighted folds —
// sum-product and min-plus — charge on one worker exactly what the count
// executor charges and leave as many entries.
func TestInnerCountCharges(t *testing.T) {
	sr, sum, tropical := CountSemiring(), SumProductSemiring(), TropicalSemiring()
	wsum := func(d int, v int64) float64 { return 1 + float64(v%3) }
	wmin := func(d int, v int64) float64 { return float64(v) }
	discard := func([]int64) bool { return true }
	for _, tc := range innerCountCases() {
		plan := tc.plan
		want := naiveCount(t, tc.name, tc.q, tc.db)
		// weighted holds both weighted folds under pol, on one worker, to
		// the count executor's charges cc and entries, and to the values
		// of the no-cache run, which comes first.
		var wantSum, wantMin float64
		weighted := func(pol Policy, cc stats.Counters, entries int) {
			t.Helper()
			var cs, cm stats.Counters
			s, ts, err := fold(bg, plan.WithCounters(&cs), pol, sum, wsum, nil)
			if err != nil {
				t.Fatal(err)
			}
			m, tm, err := fold(bg, plan.WithCounters(&cm), pol, tropical, wmin, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pol.Disabled {
				wantSum, wantMin = s, m
			} else if math.Abs(s-wantSum) > 1e-9*math.Max(1, math.Abs(wantSum)) || m != wantMin {
				t.Fatalf("%s %+v: sum %g, min %g; no cache %g, %g", tc.name, pol, s, m, wantSum, wantMin)
			}
			if cs != cc || cm != cc || ts.entries != entries || tm.entries != entries {
				t.Errorf("%s %+v: count charged %+v (%d entries), sum %+v (%d), min %+v (%d)",
					tc.name, pol, cc, entries, cs, ts.entries, cm, tm.entries)
			}
		}
		for _, pol := range []Policy{{Disabled: true}, {}} {
			pol.Workers = 1
			var ce, cc, ca stats.Counters
			must(plan.WithCounters(&ce).EvalParallelCtx(bg, pol, discard))
			cnt := must(plan.WithCounters(&cc).CountParallelCtx(bg, pol))
			agg, tl, err := fold(bg, plan.WithCounters(&ca), pol, sr, UnitWeight(sr), nil)
			if err != nil {
				t.Fatal(err)
			}
			if cnt.Count != want || agg != want {
				t.Fatalf("%s %+v: count %d, aggregate %d, naive %d", tc.name, pol, cnt.Count, agg, want)
			}
			if cc != ca || cnt.CachedEntries != tl.entries {
				t.Errorf("%s %+v: count charged %+v (%d entries), aggregate %+v (%d entries)",
					tc.name, pol, cc, cnt.CachedEntries, ca, tl.entries)
			}
			weighted(pol, cc, cnt.CachedEntries)
			if cc.TrieAccesses != ce.TrieAccesses || cc.CacheMisses != ce.CacheMisses || cc.CacheInserts != ce.CacheInserts {
				t.Errorf("%s %+v: count charged %+v, eval %+v", tc.name, pol, cc, ce)
			}
			if cc.HashAccesses > ce.HashAccesses || cc.CacheHits > ce.CacheHits {
				t.Errorf("%s %+v: count probed more than eval: %+v vs %+v", tc.name, pol, cc, ce)
			}
			if int64(cnt.CachedEntries) != cc.CacheInserts {
				t.Errorf("%s %+v: %d entries resident after %d inserts", tc.name, pol, cnt.CachedEntries, cc.CacheInserts)
			}
			for _, limit := range []int{1, 7} {
				if pol.Disabled {
					break
				}
				var cl stats.Counters
				res := must(plan.WithCounters(&cl).EvalLimitCtx(bg, pol, limit, discard))
				if res.Count != want {
					t.Fatalf("%s limit %d: eval counted %d, naive %d", tc.name, limit, res.Count, want)
				}
				if cl.TrieAccesses != ce.TrieAccesses || cl.CacheMisses != ce.CacheMisses ||
					cl.CacheInserts != ce.CacheInserts || cl.HashAccesses > ce.HashAccesses {
					t.Errorf("%s limit %d: capped eval charged %+v, eval %+v", tc.name, limit, cl, ce)
				}
			}
		}
		for _, pol := range []Policy{
			{Capacity: 16, Eviction: EvictLRU},
			{Capacity: 256, Eviction: EvictLRU},
			{SupportThreshold: 1},
			{SupportThreshold: 2},
		} {
			var ce stats.Counters
			must(plan.WithCounters(&ce).EvalParallelCtx(bg, pol, discard))
			for _, workers := range []int{1, 2, 4} {
				pol := pol
				pol.Workers = workers
				var cc stats.Counters
				cnt := must(plan.WithCounters(&cc).CountParallelCtx(bg, pol))
				agg := must(AggregateParallelCtx(bg, plan, pol, sr, UnitWeight(sr)))
				if cnt.Count != want || agg != want {
					t.Fatalf("%s %+v: count %d, aggregate %d, naive %d", tc.name, pol, cnt.Count, agg, want)
				}
				// A sharded count pays the root-domain prescan and its
				// workers' duplicated misses; the enumeration never shards.
				if workers != 1 {
					continue
				}
				weighted(pol, cc, cnt.CachedEntries)
				if cc.TrieAccesses > ce.TrieAccesses {
					t.Errorf("%s %+v: count charged %d trie accesses, eval %d", tc.name, pol, cc.TrieAccesses, ce.TrieAccesses)
				}
			}
		}
	}
}

// TestInnerCountCancelled cuts a count inside a bag's tail that is not
// the leaf: in E(x,y), E(z,w) the first bag's tail is the whole bag,
// counted before the second bag is entered, and the trip lands on the
// first poll that consults the context. Both unit-weight executors return
// its error and a zero result.
func TestInnerCountCancelled(t *testing.T) {
	db := dataset.TriadicPA(700, 6, 0.5, 33).DB(false)
	plan := must(AutoPlan(cq.MustParse("E(x,y), E(z,w)"), db, AutoOptions{}))
	if !plan.is(0, tailFirst) || plan.lastVar[plan.root] == plan.numVars-1 {
		t.Fatalf("root bag's tail does not start at depth 0 above the leaf: flags %v", plan.flags)
	}
	sr := CountSemiring()
	res, err := plan.CountParallelCtx(newTripCtx(2), Policy{Workers: 1})
	if !errors.Is(err, context.Canceled) || res != (CountResult{}) {
		t.Errorf("count: %+v, %v; want a zero result and context.Canceled", res, err)
	}
	agg, err := AggregateParallelCtx(newTripCtx(2), plan, Policy{Workers: 1}, sr, UnitWeight(sr))
	if !errors.Is(err, context.Canceled) || agg != 0 {
		t.Errorf("aggregate: %d, %v; want 0 and context.Canceled", agg, err)
	}
}
