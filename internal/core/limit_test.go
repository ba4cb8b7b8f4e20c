package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/stats"
)

// starQuery is the k-star E(x, y1), …, E(x, yk) over one relation.
func starQuery(k int) *cq.Query {
	atoms := make([]string, k)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("E(x, y%d)", i+1)
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// limitQuery draws the limited eval oracle's query shapes: paths,
// cycles, lollipops, stars and queries.Random.
func limitQuery(trial int, rng *rand.Rand) *cq.Query {
	switch trial % 5 {
	case 0:
		return queries.Path(3 + rng.Intn(3))
	case 1:
		return queries.Cycle(3 + rng.Intn(3))
	case 2:
		return queries.Lollipop(3, 1+rng.Intn(2))
	case 3:
		return starQuery(2 + rng.Intn(3))
	default:
		return queries.Random(4+rng.Intn(2), 0.4+rng.Float64()*0.3, rng.Int63())
	}
}

// TestEvalLimitOracle is the limited eval's differential oracle. On
// random small graphs and query shapes, under no caching, unbounded
// caches, LRU and FIFO at small capacities and a support threshold of 2,
// at limits 0 (the full enumeration), 1, 7, |q(D)|−1, |q(D)| and
// |q(D)|+1, EvalLimitCtx must emit exactly the first limit rows of the
// no-cache sequence and report CountParallelCtx's count. On one worker a
// limited run must charge no more accesses than the full enumeration
// under the same policy, and exactly as many when the limit is not below
// |q(D)|, the policy caches nothing or the plan has no cache site: the
// counting tail then has nothing to skip. At workers 0, 2 and 4 every
// run must equal the Workers: 1 run: its rows, its result and every
// counter.
func TestEvalLimitOracle(t *testing.T) {
	policies := []Policy{
		{Disabled: true},
		{},
		{Capacity: 2, Eviction: EvictLRU},
		{Capacity: 5, Eviction: EvictLRU},
		{Capacity: 2},
		{Capacity: 9},
		{SupportThreshold: 2},
	}
	// run is one EvalLimitCtx: what it emitted, reported and charged.
	type run struct {
		rows [][]int64
		res  EvalResult
		c    stats.Counters
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(14)
		db := dataset.ErdosRenyi(n, 0.15+rng.Float64()*0.25, rng.Int63()).DB(rng.Intn(2) == 0)
		q := limitQuery(trial, rng)
		plan := must(AutoPlan(q, db, AutoOptions{}))
		canon := collectTuples(func(emit func([]int64) bool) { plan.Eval(Policy{Disabled: true}, emit) })
		total := int64(len(canon))
		sites := slices.Contains(plan.cacheable, true)
		for _, pol := range policies {
			one := map[int64]run{} // the Workers: 1 runs by limit
			for _, workers := range []int{1, 0, 2, 4} {
				pol := pol
				pol.Workers = workers
				label := fmt.Sprintf("trial %d %s |q(D)|=%d %+v", trial, q, total, pol)
				want := must(plan.CountParallelCtx(bg, pol)).Count
				if want != total {
					t.Fatalf("%s: CountParallelCtx %d, no-cache eval %d", label, want, total)
				}
				for _, limit := range []int64{0, 1, 7, total - 1, total, total + 1} {
					if limit < 0 {
						continue
					}
					var r run
					r.res = must(plan.WithCounters(&r.c).EvalLimitCtx(bg, pol, int(limit), func(mu []int64) bool {
						r.rows = append(r.rows, slices.Clone(mu))
						return true
					}))
					at := fmt.Sprintf("%s limit %d", label, limit)
					prefix := total
					if limit > 0 {
						prefix = min(limit, total)
					}
					sameTuples(t, at, r.rows, canon[:prefix])
					if r.res.Count != want || r.res.Emitted != int64(len(r.rows)) {
						t.Fatalf("%s: count %d emitted %d, want %d and %d", at, r.res.Count, r.res.Emitted, want, len(r.rows))
					}
					if workers != 1 {
						if w := one[limit]; r.res != w.res || r.c != w.c {
							t.Fatalf("%s: %+v charging %+v, Workers: 1 %+v charging %+v", at, r.res, r.c, w.res, w.c)
						}
						continue
					}
					one[limit] = r
					if limit == 0 {
						continue
					}
					c, full := r.c, one[0].c
					if c.Total() > full.Total() {
						t.Fatalf("%s: charged %d accesses, the full enumeration %d\nlimited: %+v\nfull:    %+v", at, c.Total(), full.Total(), c, full)
					}
					if (limit >= total || pol.Disabled || !sites) && c != full {
						t.Fatalf("%s: charges differ from the full enumeration's\nlimited: %+v\nfull:    %+v", at, c, full)
					}
				}
			}
		}
	}
}
