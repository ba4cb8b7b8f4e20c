package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/stats"
)

// innerCountCases are the queries TestInnerCountCharges runs: the
// parallel shapes, limitQuery's generator over small random graphs, a
// disconnected query (its second bag's adhesion is empty), a constant
// atom and a repeated variable.
func innerCountCases() []queryCase {
	cases := parallelShapes()
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(14)
		db := dataset.ErdosRenyi(n, 0.15+rng.Float64()*0.25, rng.Int63()).DB(rng.Intn(2) == 0)
		q := limitQuery(trial, rng)
		cases = append(cases, queryCase{fmt.Sprintf("trial %d %s", trial, q), q, db})
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
		cases = append(cases, queryCase{text, cq.MustParse(text), db})
	}
	return cases
}

// TestInnerCountCharges pins what counting a bag's independent tail
// costs. On one worker with unbounded caches the count executor and the
// unit-weight fold charge the enumeration's trie accesses, misses and
// inserts, keep one entry per insert and probe no more often than it:
// the skipped re-entries were cache hits. With caching off they charge
// the enumeration's trie accesses, which is then plain LFTJ. Under
// bounded and support-gated policies they count |q(D)| at every worker
// count and, on one worker, charge no more trie accesses than the
// enumeration.
func TestInnerCountCharges(t *testing.T) {
	sr := CountSemiring()
	discard := func([]int64) bool { return true }
	for _, tc := range innerCountCases() {
		plan := must(AutoPlan(tc.q, tc.db, AutoOptions{}))
		want := naiveCount(t, tc.name, tc.q, tc.db)
		for _, pol := range []Policy{{}, {Disabled: true}} {
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
			if cc.TrieAccesses != ce.TrieAccesses || cc.CacheMisses != ce.CacheMisses || cc.CacheInserts != ce.CacheInserts {
				t.Errorf("%s %+v: count charged %+v, eval %+v", tc.name, pol, cc, ce)
			}
			if cc.HashAccesses > ce.HashAccesses || cc.CacheHits > ce.CacheHits {
				t.Errorf("%s %+v: count probed more than eval: %+v vs %+v", tc.name, pol, cc, ce)
			}
			if int64(cnt.CachedEntries) != cc.CacheInserts {
				t.Errorf("%s %+v: %d entries resident after %d inserts", tc.name, pol, cnt.CachedEntries, cc.CacheInserts)
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
				if workers == 1 && cc.TrieAccesses > ce.TrieAccesses {
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
