package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/stats"
)

// TestParallelEvalMatchesSequential checks that an enumeration ignores
// Workers: in every cell the eval at the cell's shard count, and the
// stream asked for that many workers, emit the plan's no-cache sequence
// tuple for tuple and report and charge exactly what the Workers: 1 eval
// does. TestEvalLimitOracle holds the capped eval to the same identity.
func TestParallelEvalMatchesSequential(t *testing.T) {
	t.Parallel()
	forEachCell(nil, func(cl cell) {
		canon := cl.oracle(t).canon[cl.i]
		one, par := cl.pol, cl.pol
		one.Workers, par.Workers = 1, cl.shard
		// run is one enumeration: what it reported and charged.
		run := func(label string, exec func(p *Plan, emit func([]int64) bool) (EvalResult, error)) (res EvalResult, c stats.Counters) {
			p := cl.plan.WithCounters(&c)
			res = sameRows(t, fmt.Sprintf("%s %s", cl, label), canon, func(emit func([]int64) bool) (EvalResult, error) {
				return exec(p, emit)
			})
			return res, c
		}
		r1, c1 := run("one worker", func(p *Plan, emit func([]int64) bool) (EvalResult, error) {
			return p.EvalParallelCtx(bg, one, emit)
		})
		r, c := run("sharded", func(p *Plan, emit func([]int64) bool) (EvalResult, error) {
			return p.EvalParallelCtx(bg, par, emit)
		})
		rs, cs := run("stream", func(p *Plan, emit func([]int64) bool) (EvalResult, error) {
			return p.EvalStreamCtx(bg, one, cl.shard, emit)
		})
		if r != r1 || c != c1 || rs != r1 || cs != c1 {
			t.Fatalf("%s: eval at %d workers %+v charging %+v, stream %+v charging %+v; Workers: 1 %+v charging %+v",
				cl, cl.shard, r, c, rs, cs, r1, c1)
		}
	})
}

// TestParallelEvalEarlyStop pins the documented early-stop semantics:
// the callback returning false stops the delivery, and Emitted reports
// only delivered tuples.
func TestParallelEvalEarlyStop(t *testing.T) {
	plan := caseNamed("tpa-4-path").plans[0]
	total := plan.Count(Policy{}).Count
	if total < 5 {
		t.Fatalf("workload too small for the test: %d tuples", total)
	}
	var seen int64
	res := must(plan.EvalParallelCtx(bg, Policy{Workers: 3}, func([]int64) bool {
		seen++
		return seen < 3
	}))
	if seen != 3 || res.Emitted != 3 {
		t.Fatalf("early stop delivered %d (reported %d), want 3", seen, res.Emitted)
	}
}

// TestParallelEvalStopsProducers pins that an enumeration asked for
// several workers is a stream, not a finished join handed over: a
// consumer that stops after three tuples of a large result leaves almost
// all of the scan undone.
func TestParallelEvalStopsProducers(t *testing.T) {
	db := dataset.TriadicPA(700, 6, 0.5, 33).DB(false)
	var c stats.Counters
	plan := must(AutoPlan(queries.Path(4), db, AutoOptions{})).WithCounters(&c)
	pol := Policy{Workers: 3, Disabled: true}
	full := must(plan.EvalParallelCtx(bg, pol, func([]int64) bool { return true }))
	if full.Emitted < 1e4 {
		t.Fatalf("workload too small for the test: %d tuples", full.Emitted)
	}
	fullAccesses := c.TrieAccesses
	c.Reset()
	var seen int64
	res := must(plan.EvalParallelCtx(bg, pol, func([]int64) bool {
		seen++
		return seen < 3
	}))
	if seen != 3 || res.Emitted != 3 {
		t.Fatalf("early stop delivered %d (reported %d), want 3", seen, res.Emitted)
	}
	if c.TrieAccesses*10 >= fullAccesses {
		t.Fatalf("stopped run charged %d trie accesses, the full enumeration %d: the producers were not stopped",
			c.TrieAccesses, fullAccesses)
	}
}

// TestParallelWorkersOneIsSequential is the regression test that
// Workers: 1 takes the sequential code path, which enumerates no root
// domain: in every cell CountParallelCtx at Workers: 1 returns and
// charges exactly what Count does, and, over a non-empty instance, a
// count at two workers counts the same but charges what the sequential
// count does not — the root-domain prescan any sharded run performs.
func TestParallelWorkersOneIsSequential(t *testing.T) {
	t.Parallel()
	forEachCell(nil, func(cl cell) {
		var seq, one, two stats.Counters
		want := cl.plan.WithCounters(&seq).Count(cl.pol)
		pol := cl.pol
		pol.Workers = 1
		if got := must(cl.plan.WithCounters(&one).CountParallelCtx(bg, pol)); got != want || one != seq {
			t.Fatalf("%s: Workers: 1 %+v charging %+v, sequential %+v charging %+v", cl, got, one, want, seq)
		}
		if cl.plan.inst.Empty() {
			return
		}
		pol.Workers = 2
		if got := must(cl.plan.WithCounters(&two).CountParallelCtx(bg, pol)); got.Count != want.Count {
			t.Fatalf("%s: two workers count %d, sequential %d", cl, got.Count, want.Count)
		}
		if two == seq {
			t.Fatalf("%s: two workers charge what the sequential count does; expected the root prescan to show up", cl)
		}
	})
}

// TestParallelAccountingMergesExactly checks that per-worker counters
// merged after the join add up: the merged sink must equal the sum the
// workers would report individually — verified indirectly by running
// every cell of a non-empty instance twice at its shard count and
// requiring identical accounting (deterministic sharding) and a
// non-empty trie trace.
func TestParallelAccountingMergesExactly(t *testing.T) {
	t.Parallel()
	forEachCell(nil, func(cl cell) {
		if cl.plan.inst.Empty() {
			return
		}
		pol := cl.pol
		pol.Workers = cl.shard
		var first, again stats.Counters
		must(cl.plan.WithCounters(&first).CountParallelCtx(bg, pol))
		must(cl.plan.WithCounters(&again).CountParallelCtx(bg, pol))
		if again != first {
			t.Fatalf("%s workers %d: parallel accounting not deterministic: %+v vs %+v", cl, cl.shard, again, first)
		}
		if again.TrieAccesses == 0 {
			t.Fatalf("%s workers %d: parallel run accounted no trie accesses", cl, cl.shard)
		}
	})
}

// TestRootKeys pins the shard domain: the root keys are strictly
// ascending, and the first variable of every result is one of them.
func TestRootKeys(t *testing.T) {
	q := queries.Path(3)
	plan, err := AutoPlan(q, dataset.ErdosRenyi(20, 0.2, 3).DB(false), AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rootKeys(plan.inst, nil)
	if len(keys) == 0 {
		t.Fatal("no root keys on a non-empty graph")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("root keys not strictly ascending at %d: %v", i, keys)
		}
	}
	plan.Eval(Policy{}, func(mu []int64) bool {
		if _, found := slices.BinarySearch(keys, mu[0]); !found {
			t.Fatalf("result root value %d missing from the root keys %v", mu[0], keys)
		}
		return true
	})
}

// TestPooledRunnersParallelEvalRace exercises the per-instance runner
// pool under concurrent parallel evaluation and counting — recycled
// frogs and trie cursors crossing worker goroutines is exactly where a
// pooling bug would race. Run under -race by the CI race job.
func TestPooledRunnersParallelEvalRace(t *testing.T) {
	db := dataset.TriadicPA(140, 3, 0.5, 21).DB(false)
	q := queries.Cycle(4)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Count(Policy{}).Count
	if want == 0 {
		t.Fatal("workload counts zero matches; test would prove nothing")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if g%2 == 0 {
					var n int64
					plan.EvalParallelCtx(bg, Policy{Workers: 3}, func(mu []int64) bool { n++; return true })
					if n != want {
						t.Errorf("parallel eval enumerated %d, want %d", n, want)
						return
					}
				} else if got := must(plan.CountParallelCtx(bg, Policy{Workers: 3})).Count; got != want {
					t.Errorf("parallel count = %d, want %d", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPooledCacheTablesConcurrent runs counts, evaluations, aggregates,
// an early-stopped and a cancelled evaluation side by side over one plan
// (and counts over a second plan on other data), all drawing cache
// managers from the shared pools. A table shared between two runs is a
// data race; one returned dirty — by the cancelled scan, say — answers
// the next run from another run's entries, which shows in the sequential
// runs' results and in their exact hit/miss accounting. Run under -race
// by the CI race job.
func TestPooledCacheTablesConcurrent(t *testing.T) {
	q := queries.Path(4)
	plan, err := AutoPlan(q, dataset.TriadicPA(140, 3, 0.5, 21).DB(false), AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := AutoPlan(q, dataset.TriadicPA(90, 4, 0.3, 22).DB(false), AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lru := Policy{Workers: 1, Capacity: 64, Eviction: EvictLRU}
	sr := SumProductSemiring()
	weight := func(d int, v int64) float64 { return float64(v%3 + 1) }
	// count runs one sequential count with private accounting and
	// returns the count, the resident entries and the counters.
	count := func(p *Plan, pol Policy) ([2]int64, stats.Counters) {
		var c stats.Counters
		res := must(p.WithCounters(&c).CountParallelCtx(bg, pol))
		return [2]int64{res.Count, int64(res.CachedEntries)}, c
	}
	wantLRU, wantLRUStats := count(plan, lru)
	wantOther, wantOtherStats := count(other, Policy{Workers: 1, SupportThreshold: 1})
	wantAgg := Aggregate(plan, Policy{}, sr, weight)
	if wantLRU[0] < 1000 || wantLRUStats.CacheEvictions == 0 {
		t.Fatalf("workload too small to prove anything: %+v, %+v", wantLRU, wantLRUStats)
	}

	var wg sync.WaitGroup
	for _, run := range []func() error{
		func() error {
			if got, c := count(plan, lru); got != wantLRU || c != wantLRUStats {
				return errors.New("bounded-LRU count or its accounting drifted")
			}
			return nil
		},
		func() error {
			if got, c := count(other, Policy{Workers: 1, SupportThreshold: 1}); got != wantOther || c != wantOtherStats {
				return errors.New("support-threshold count on the second plan or its accounting drifted")
			}
			return nil
		},
		func() error {
			if got := must(plan.CountParallelCtx(bg, Policy{Workers: 3})).Count; got != wantLRU[0] {
				return errors.New("sharded count drifted")
			}
			return nil
		},
		func() error {
			if got := must(AggregateParallelCtx(bg, plan, Policy{Workers: 2}, sr, weight)); got != wantAgg {
				return errors.New("aggregate drifted")
			}
			return nil
		},
		func() error {
			var n int64
			must(plan.EvalParallelCtx(bg, Policy{Workers: 1}, func([]int64) bool { n++; return true }))
			if n != wantLRU[0] {
				return errors.New("evaluation drifted")
			}
			return nil
		},
		func() error { // stopped by its consumer with sets half built
			n := 0
			must(plan.EvalParallelCtx(bg, Policy{Workers: 1}, func([]int64) bool { n++; return n < 300 }))
			return nil
		},
		func() error { // cancelled mid-scan: its tables go back to the pool too
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			_, err := plan.EvalParallelCtx(ctx, Policy{Workers: 1}, func([]int64) bool { cancel(); return true })
			if !errors.Is(err, context.Canceled) {
				return errors.New("cancelled evaluation returned no cancellation")
			}
			_, err = plan.CountParallelCtx(ctx, Policy{Workers: 2})
			if !errors.Is(err, context.Canceled) {
				return errors.New("count under a dead context returned no cancellation")
			}
			return nil
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := run(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
