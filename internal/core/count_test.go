package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// middleTail reports whether p has a cached bag with both a child and an
// independent tail: the count executor then settles the tail's bindings
// times its children's product, and a capped eval that counts past its
// limit tallies them the same way.
func middleTail(p *Plan) bool {
	for v := range p.numNodes {
		if p.firstVar[v] < 0 || !p.cacheable[v] || len(p.children[v]) == 0 {
			continue
		}
		for d := p.firstVar[v]; d <= p.lastVar[v]; d++ {
			if p.is(d, tailFirst) {
				return true
			}
		}
	}
	return false
}

// TestInnerCountCharges pins what counting a bag's independent tail
// costs. In every cell, on one worker, the count executor, the
// unit-weight count fold and the weighted folds — sum-product and
// min-plus — charge identical counters and leave as many entries. Under
// unbounded caches they charge the enumeration's trie accesses, misses
// and inserts, keep one entry per insert and probe no more often than
// it: the skipped re-entries were cache hits; a capped eval that counts
// past limit 1 or 7 keeps the same three charges and probes no more
// often. With caching off they charge the enumeration's trie accesses,
// which is then plain LFTJ. Under bounded and support-gated policies
// neither bounds the other's trie accesses: the skipped re-entries leave
// another cache state behind — a key's support grows more slowly and
// the eviction order differs — so a later probe the enumeration hits can
// miss. The generator must yield at least one cell whose plan has a
// cached bag with both a child and a tail.
func TestInnerCountCharges(t *testing.T) {
	t.Parallel()
	discard := func([]int64) bool { return true }
	middle := 0
	forEachCell(nil, func(cl cell) {
		p, pol := cl.plan, cl.pol
		pol.Workers = 1
		if middleTail(p) {
			middle++
		}
		var ce, cc, ca, cs, cm stats.Counters
		must(p.WithCounters(&ce).EvalParallelCtx(bg, pol, discard))
		cnt := must(p.WithCounters(&cc).CountParallelCtx(bg, pol))
		_, ta, _ := fold(bg, p.WithCounters(&ca), pol, CountSemiring(), nil, nil)
		_, ts, _ := fold(bg, p.WithCounters(&cs), pol, SumProductSemiring(), sumWeight, nil)
		_, tm, _ := fold(bg, p.WithCounters(&cm), pol, TropicalSemiring(), minWeight, nil)
		if ca != cc || cs != cc || cm != cc || ta.entries != cnt.CachedEntries || ts.entries != cnt.CachedEntries || tm.entries != cnt.CachedEntries {
			t.Fatalf("%s: count charged %+v (%d entries), count fold %+v (%d), sum %+v (%d), min %+v (%d)",
				cl, cc, cnt.CachedEntries, ca, ta.entries, cs, ts.entries, cm, tm.entries)
		}
		if !pol.Disabled && !unbounded(pol) {
			return
		}
		if cc.TrieAccesses != ce.TrieAccesses || cc.CacheMisses != ce.CacheMisses || cc.CacheInserts != ce.CacheInserts {
			t.Fatalf("%s: count charged %+v, eval %+v", cl, cc, ce)
		}
		if cc.HashAccesses > ce.HashAccesses || cc.CacheHits > ce.CacheHits {
			t.Fatalf("%s: count probed more than eval: %+v vs %+v", cl, cc, ce)
		}
		if int64(cnt.CachedEntries) != cc.CacheInserts {
			t.Fatalf("%s: %d entries resident after %d inserts", cl, cnt.CachedEntries, cc.CacheInserts)
		}
		for _, limit := range []int{1, 7} {
			if pol.Disabled {
				break
			}
			var cl2 stats.Counters
			must(p.WithCounters(&cl2).EvalLimitCtx(bg, pol, limit, discard))
			if cl2.TrieAccesses != ce.TrieAccesses || cl2.CacheMisses != ce.CacheMisses ||
				cl2.CacheInserts != ce.CacheInserts || cl2.HashAccesses > ce.HashAccesses {
				t.Fatalf("%s limit %d: capped eval charged %+v, eval %+v", cl, limit, cl2, ce)
			}
		}
	})
	if middle == 0 {
		t.Fatal("no cell's plan has a cached bag with both a child and a tail")
	}
	t.Logf("%d cells' plans have a cached bag with both a child and a tail", middle)
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
