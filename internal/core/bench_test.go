package core

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/leapfrog"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/trie"
)

// The core rung of the measurement spine: steady-state b.N loops over the
// adhesion-cache tables alone and over whole counts with the caches on,
// bounded, support-gated and off. Every benchmark reports accesses/op —
// the paper's model charge, which a table change must leave exactly where
// it was — beside ns/op and allocs/op.

// benchKeys is how many distinct adhesion assignments the table
// benchmarks cycle through: a few times the vertex count of the
// repository benchmark's graphs.
const benchKeys = 1 << 13

func benchKey(dim, i int) Key {
	var k Key
	for j := 0; j < dim; j++ {
		k[j] = int64(i) * int64(j+1)
	}
	return k
}

// BenchmarkCacheTable times one bag visit against a table of benchKeys
// entries, by outcome: hit (probe, value returned), miss (probe, and the
// store refused — the table is full under EvictNone — so it stays as it
// was), store (probe and insert into a growing table, handed back to the
// pool and taken again every benchKeys visits) and evict (probe and
// insert into a full FIFO table: every visit drops the oldest entry).
func BenchmarkCacheTable(b *testing.B) {
	for _, dim := range []int{1, 2, 4} {
		plan := tablePlan(dim)
		run := func(name string, policy Policy, prefill int, visit func(m *manager[int64], i int) *manager[int64]) {
			b.Run(fmt.Sprintf("%s/dim%d", name, dim), func(b *testing.B) {
				var c stats.Counters
				m := acquireManager[int64](policy, plan, &c, nil)
				for i := 0; i < prefill; i++ {
					put(m, 0, benchKey(dim, i), int64(i))
				}
				c.Reset()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m = visit(m, i)
				}
				b.StopTimer()
				b.ReportMetric(float64(c.Total())/float64(b.N), "accesses/op")
				m.release()
			})
		}
		run("hit", Policy{}, benchKeys, func(m *manager[int64], i int) *manager[int64] {
			if _, ok := get(m, 0, benchKey(dim, i%benchKeys)); !ok {
				b.Fatal("resident key missed")
			}
			return m
		})
		run("miss", Policy{Capacity: benchKeys, Eviction: EvictNone}, benchKeys, func(m *manager[int64], i int) *manager[int64] {
			put(m, 0, benchKey(dim, benchKeys+i%benchKeys), 1)
			return m
		})
		run("store", Policy{}, 0, func(m *manager[int64], i int) *manager[int64] {
			if i%benchKeys == 0 && i > 0 {
				c := m.c
				m.release()
				m = acquireManager[int64](Policy{}, plan, c, nil)
			}
			put(m, 0, benchKey(dim, i%benchKeys), 1)
			return m
		})
		run("evict", Policy{Capacity: benchKeys}, benchKeys, func(m *manager[int64], i int) *manager[int64] {
			put(m, 0, benchKey(dim, benchKeys+i), 1)
			return m
		})
	}
}

type benchShape struct {
	name string
	plan *Plan
}

// benchShapes are the two multi-bag shapes the count and eval rungs run,
// planned over one skewed graph.
func benchShapes() []benchShape {
	db := dataset.TriadicPA(700, 6, 0.5, 33).DB(false)
	return []benchShape{
		{"path4", must(AutoPlan(queries.Path(4), db, AutoOptions{}))},
		{"lollipop32", must(AutoPlan(queries.Lollipop(3, 2), db, AutoOptions{}))},
	}
}

// benchRun times warm executions of run over plan under policy on the
// given worker count, reporting accesses/op; run returns the execution's
// result size, which must not drift.
func benchRun(b *testing.B, plan *Plan, policy Policy, workers int, run func(*Plan, Policy) int64) {
	var c stats.Counters
	plan = plan.WithCounters(&c)
	policy.Workers = workers
	want := run(plan, policy) // warms the pools
	c.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run(plan, policy) != want {
			b.Fatal("result drifted")
		}
	}
	b.ReportMetric(float64(c.Total())/float64(b.N), "accesses/op")
}

// BenchmarkCount times a warm count of two multi-bag shapes over a
// skewed graph under the four cache regimes the repository benchmark's
// join workloads mix: unbounded caches, a 256-entry LRU that the working
// set overflows, a support threshold, and no caches at all. One worker is
// the sequential scan, two the sharded one that join_cached's two-worker
// request runs.
func BenchmarkCount(b *testing.B) {
	for _, shape := range benchShapes() {
		for _, tc := range []struct {
			name   string
			policy Policy
		}{
			{"cached", Policy{}},
			{"lru256", Policy{Capacity: 256, Eviction: EvictLRU}},
			{"support2", Policy{SupportThreshold: 2}},
			{"nocache", Policy{Disabled: true}},
		} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", shape.name, tc.name, workers), func(b *testing.B) {
					benchRun(b, shape.plan, tc.policy, workers, func(p *Plan, pol Policy) int64 {
						return must(p.CountParallelCtx(bg, pol)).Count
					})
				})
			}
		}
	}
}

// BenchmarkEval times a warm enumeration of the same shapes into a
// consumer that keeps nothing: the leaf scan feeding the per-tuple
// epilogue, where BenchmarkCount is the leaf scan collapsed to a sum.
// One worker is the sequential scan, two the sharded producers and their
// merger; "cached" and "nocache" are EvalParallelCtx with the factorized
// caches on and off. A stream is the cached run: it emits the same
// sequence at every worker count and policy.
func BenchmarkEval(b *testing.B) {
	discard := func([]int64) bool { return true }
	eval := func(p *Plan, pol Policy) int64 {
		return must(p.EvalParallelCtx(bg, pol, discard)).Emitted
	}
	for _, shape := range benchShapes() {
		for _, tc := range []struct {
			name   string
			policy Policy
			run    func(*Plan, Policy) int64
		}{
			{"cached", Policy{}, eval},
			{"nocache", Policy{Disabled: true}, eval},
		} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", shape.name, tc.name, workers), func(b *testing.B) {
					benchRun(b, shape.plan, tc.policy, workers, tc.run)
				})
			}
		}
	}
}

// planBench is the query and the two snapshots the planning benchmarks
// share: a 3-path over a skewed graph in a warm registry, and the same
// graph one 16-tuple delta later, its indices patched — what a resident
// engine holds when a read follows an update.
func planBench(b *testing.B) (q *cq.Query, reg *trie.Registry, snaps [2]*relation.DB) {
	g := dataset.TriadicPA(700, 6, 0.5, 33)
	rel := g.EdgeRelation("E", false)
	st := relation.NewStore(rel)
	var ins, del [][]int64
	for i := 0; i < 8; i++ {
		ins = append(ins, []int64{int64(9000 + i), int64(9001 + i)})
		del = append(del, append([]int64(nil), rel.Tuple(i*37)...))
	}
	v, _, err := st.ApplyDelta(ins, del)
	if err != nil {
		b.Fatal(err)
	}
	reg = trie.NewRegistry(0)
	reg.Observe(v)
	return queries.Path(3), reg, [2]*relation.DB{relation.NewDB(rel), relation.NewDB(v.Rel)}
}

// BenchmarkAutoPlan times what a plan-cache miss pays — selection,
// validation, table compile and binding — over a registry that already
// holds every index the plan uses.
func BenchmarkAutoPlan(b *testing.B) {
	q, reg, snaps := planBench(b)
	opts := AutoOptions{Tries: reg}
	must(AutoPlan(q, snaps[0], opts))
	must(AutoPlan(q, snaps[1], opts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(AutoPlan(q, snaps[i&1], opts))
	}
}

// BenchmarkPlanRebind times what the same read pays when the shape was
// kept: Rebind to the other snapshot, alternating so every iteration
// really changes tries. It pairs with BenchmarkAutoPlan.
func BenchmarkPlanRebind(b *testing.B) {
	q, reg, snaps := planBench(b)
	bopts := leapfrog.BuildOpts{Tries: reg}
	plan := must(AutoPlan(q, snaps[0], AutoOptions{Tries: reg}))
	want := must(plan.CountParallelCtx(bg, Policy{Workers: 1})).Count
	plan = must(plan.Rebind(snaps[1], bopts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan = must(plan.Rebind(snaps[i&1], bopts))
	}
	b.StopTimer()
	plan = must(plan.Rebind(snaps[0], bopts))
	if got := must(plan.CountParallelCtx(bg, Policy{Workers: 1})).Count; got != want {
		b.Fatalf("re-bound plan counts %d, compiled plan %d", got, want)
	}
}
