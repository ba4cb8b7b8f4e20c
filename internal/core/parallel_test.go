package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
)

// queryCase is a named query over the database it runs against.
type queryCase struct {
	name string
	q    *cq.Query
	db   *relation.DB
}

// parallelShapes returns every query-shape family of internal/queries
// paired with a database it runs against: the graph shapes over a skewed
// triangle-rich graph and the IMDB cycles over the cast stand-in.
func parallelShapes() []queryCase {
	g := dataset.TriadicPA(90, 3, 0.5, 7).DB(false)
	imdbCfg := dataset.DefaultIMDB()
	imdbCfg.Persons, imdbCfg.Movies, imdbCfg.Appearances = 120, 40, 480
	imdb := dataset.IMDBCast(imdbCfg)
	return []queryCase{
		{"4-path", queries.Path(4), g},
		{"5-path", queries.Path(5), g},
		{"4-cycle", queries.Cycle(4), g},
		{"5-cycle", queries.Cycle(5), g},
		{"triangle", queries.Clique(3), g},
		{"4-clique", queries.Clique(4), g},
		{"lollipop-3-2", queries.Lollipop(3, 2), g},
		{"rand-5", queries.Random(5, 0.5, 11), g},
		{"imdb-4-cycle", queries.IMDBCycle(2), imdb},
		{"imdb-6-cycle", queries.IMDBCycle(3), imdb},
	}
}

// naiveCounts memoizes naiveCount by case name.
var naiveCounts struct {
	sync.Mutex
	m map[string]int64
}

// naiveCount is naive.Count of the named case, evaluated once per test
// binary: the oracle takes seconds on the largest parallel shapes, which
// several tests check against it.
func naiveCount(t *testing.T, name string, q *cq.Query, db *relation.DB) int64 {
	t.Helper()
	naiveCounts.Lock()
	defer naiveCounts.Unlock()
	if n, ok := naiveCounts.m[name]; ok {
		return n
	}
	n, err := naive.Count(q, db)
	if err != nil {
		t.Fatalf("%s: naive: %v", name, err)
	}
	if naiveCounts.m == nil {
		naiveCounts.m = make(map[string]int64)
	}
	naiveCounts.m[name] = n
	return n
}

var parallelPolicies = []Policy{
	{},
	{Capacity: 8},
	{Capacity: 16, Eviction: EvictLRU},
	{Capacity: 4, Eviction: EvictNone},
	{SupportThreshold: 1},
	{Disabled: true},
}

// TestParallelCountMatchesSequential is the tentpole's correctness bar:
// for every query shape, policy and worker count, the sharded count must
// be bit-identical to the sequential one (and to the naive oracle).
func TestParallelCountMatchesSequential(t *testing.T) {
	for _, sh := range parallelShapes() {
		plan, err := AutoPlan(sh.q, sh.db, AutoOptions{})
		if err != nil {
			t.Fatalf("%s: AutoPlan: %v", sh.name, err)
		}
		want := naiveCount(t, sh.name, sh.q, sh.db)
		for _, pol := range parallelPolicies {
			seq := plan.Count(pol)
			if seq.Count != want {
				t.Fatalf("%s: sequential count = %d, naive = %d", sh.name, seq.Count, want)
			}
			for _, workers := range []int{0, 2, 3, 4, 7} {
				pol := pol
				pol.Workers = workers
				par := must(plan.CountParallelCtx(bg, pol))
				if par.Count != seq.Count {
					t.Errorf("%s workers=%d policy=%+v: parallel count = %d, sequential = %d",
						sh.name, workers, pol, par.Count, seq.Count)
				}
			}
		}
	}
}

// TestParallelEvalMatchesSequential checks that an enumeration ignores
// Workers: under every cache policy, EvalParallelCtx at workers 0, 2 and
// 4 emits the sequential no-cache sequence tuple for tuple and reports
// and charges exactly what the Workers: 1 run does.
func TestParallelEvalMatchesSequential(t *testing.T) {
	for _, sh := range parallelShapes() {
		plan, err := AutoPlan(sh.q, sh.db, AutoOptions{})
		if err != nil {
			t.Fatalf("%s: AutoPlan: %v", sh.name, err)
		}
		seq := collectTuples(func(emit func([]int64) bool) { plan.Eval(Policy{Disabled: true}, emit) })
		for _, pol := range []Policy{{}, {Capacity: 8}, {Disabled: true}} {
			var one EvalResult
			var oneCtrs stats.Counters
			for _, workers := range []int{1, 0, 2, 4} {
				pol := pol
				pol.Workers = workers
				var par [][]int64
				var c stats.Counters
				res := must(plan.WithCounters(&c).EvalParallelCtx(bg, pol, func(mu []int64) bool {
					par = append(par, append([]int64(nil), mu...))
					return true
				}))
				if res.Emitted != int64(len(seq)) {
					t.Fatalf("%s workers=%d: emitted %d, want %d", sh.name, workers, res.Emitted, len(seq))
				}
				if !reflect.DeepEqual(par, seq) {
					t.Errorf("%s workers=%d policy=%+v: stream differs from the sequential no-cache order", sh.name, workers, pol)
				}
				if workers == 1 {
					one, oneCtrs = res, c
				} else if res != one || c != oneCtrs {
					t.Errorf("%s workers=%d policy=%+v: %+v charging %+v, Workers: 1 %+v charging %+v",
						sh.name, workers, pol, res, c, one, oneCtrs)
				}
			}
		}
	}
}

// TestParallelEvalEarlyStop pins the documented early-stop semantics:
// the callback returning false stops the delivery, and Emitted reports
// only delivered tuples.
func TestParallelEvalEarlyStop(t *testing.T) {
	sh := parallelShapes()[0]
	plan, err := AutoPlan(sh.q, sh.db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
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

// TestParallelAggregateMatchesSequential checks the semiring engine:
// counting and tropical (min-plus) aggregates — whose ⊕ is exactly
// associative — must be bit-identical to the sequential run under every
// worker count.
func TestParallelAggregateMatchesSequential(t *testing.T) {
	weight := func(d int, v int64) float64 { return float64(v % 17) }
	for _, sh := range parallelShapes() {
		plan, err := AutoPlan(sh.q, sh.db, AutoOptions{})
		if err != nil {
			t.Fatalf("%s: AutoPlan: %v", sh.name, err)
		}
		cnt := CountSemiring()
		seqCount := Aggregate(plan, Policy{}, cnt, UnitWeight(cnt))
		trop := TropicalSemiring()
		seqMin := Aggregate(plan, Policy{}, trop, weight)
		for _, workers := range []int{0, 2, 4} {
			pol := Policy{Workers: workers}
			if got := must(AggregateParallelCtx(bg, plan, pol, cnt, UnitWeight(cnt))); got != seqCount {
				t.Errorf("%s workers=%d: count aggregate = %d, sequential = %d", sh.name, workers, got, seqCount)
			}
			if got := must(AggregateParallelCtx(bg, plan, pol, trop, weight)); got != seqMin {
				t.Errorf("%s workers=%d: tropical aggregate = %v, sequential = %v", sh.name, workers, got, seqMin)
			}
		}
	}
}

// TestParallelWorkersOneIsSequential is the regression test that
// Workers: 1 takes the sequential code path: the parallel entry points
// must then produce exactly the sequential accounting — in particular no
// root-domain prescan (which any sharded run performs) may appear. It
// holds with caches in play and with none (LFTJ).
func TestParallelWorkersOneIsSequential(t *testing.T) {
	sh := parallelShapes()[3] // 5-cycle: multi-bag TD
	var c stats.Counters
	plan, err := AutoPlan(sh.q, sh.db, AutoOptions{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{{}, {Disabled: true}} {
		c.Reset()
		seq := plan.Count(pol)
		seqCtrs := c

		pol.Workers = 1
		c.Reset()
		par := must(plan.CountParallelCtx(bg, pol))
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("%+v: CountParallelCtx = %+v, sequential = %+v", pol, par, seq)
		}
		if c != seqCtrs {
			t.Errorf("%+v: CountParallelCtx accounting %+v differs from sequential %+v (parallel path taken?)", pol, c, seqCtrs)
		}

		pol.Workers = 2
		c.Reset()
		par2 := must(plan.CountParallelCtx(bg, pol))
		if par2.Count != seq.Count {
			t.Fatalf("%+v: CountParallelCtx = %d, want %d", pol, par2.Count, seq.Count)
		}
		if c == seqCtrs {
			t.Errorf("%+v: accounting identical to sequential; expected the root prescan to show up", pol)
		}
	}
}

// TestParallelAccountingMergesExactly checks that per-worker counters
// merged after the join add up: the merged sink must equal the sum the
// workers would report individually — verified indirectly by running the
// same parallel execution twice and requiring identical accounting
// (deterministic sharding) and a non-empty trie trace, with caches in
// play and with none (LFTJ).
func TestParallelAccountingMergesExactly(t *testing.T) {
	sh := parallelShapes()[5] // 4-clique
	var c stats.Counters
	plan, err := AutoPlan(sh.q, sh.db, AutoOptions{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{{Workers: 4}, {Workers: 3, Disabled: true}} {
		c.Reset()
		must(plan.CountParallelCtx(bg, pol))
		first := c
		c.Reset()
		must(plan.CountParallelCtx(bg, pol))
		if c != first {
			t.Errorf("%+v: parallel accounting not deterministic: %+v vs %+v", pol, c, first)
		}
		if c.TrieAccesses == 0 {
			t.Errorf("%+v: parallel run accounted no trie accesses", pol)
		}
	}
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

// TestParallelRandomizedEquivalence is the quick-check twin of the core
// cross-engine property test: random graphs, random patterns, random
// policies and random worker counts must agree with the naive oracle.
func TestParallelRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(12)
		g := dataset.ErdosRenyi(n, 0.12+rng.Float64()*0.2, rng.Int63())
		db := g.DB(rng.Intn(2) == 0)
		var q *cq.Query
		switch trial % 4 {
		case 0:
			q = queries.Path(3 + rng.Intn(3))
		case 1:
			q = queries.Cycle(3 + rng.Intn(3))
		case 2:
			q = queries.Random(4+rng.Intn(2), 0.4+rng.Float64()*0.3, rng.Int63())
		default:
			q = queries.Clique(3 + rng.Intn(2))
		}
		want, err := naive.Count(q, db)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := AutoPlan(q, db, AutoOptions{})
		if err != nil {
			t.Fatalf("trial %d: AutoPlan: %v", trial, err)
		}
		pol := Policy{
			Capacity:         rng.Intn(20),
			SupportThreshold: rng.Intn(3),
			Eviction:         EvictionMode(rng.Intn(3)),
			Disabled:         rng.Intn(4) == 0,
			Workers:          2 + rng.Intn(4),
		}
		if got := must(plan.CountParallelCtx(bg, pol)).Count; got != want {
			t.Errorf("trial %d (%s, workers=%d): parallel count = %d, naive = %d",
				trial, q, pol.Workers, got, want)
		}
	}
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
