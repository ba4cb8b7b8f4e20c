package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/leapfrog"
	"repro/internal/queries"
	"repro/internal/stats"
)

// TestBatchedDifferentialEquivalence is the leaf scan's differential
// harness: in every cell every execution — the count and the sum-product
// and min-plus folds (the fold's weighted tail), on one worker and at the
// cell's shard count, and the eval, which runs on one worker at every
// count — must give at the cell's block length exactly what length 1,
// the scalar Key/Next sequence, gives: the same count, bit-identical
// folds and bit-identical stats.Counters; the eval emits the plan's
// no-cache sequence row for row at both. In the no-cache cell the
// sequential count, at both lengths, is also held to the counters of
// leapfrog.Count, the Fig. 1 loop that never enters trie's leapfrog
// kernel, on an instance of its own over the plan's order and index
// source.
func TestBatchedDifferentialEquivalence(t *testing.T) {
	// run is everything one block length executes at one worker count.
	type run struct {
		count, eval, sumC, minC stats.Counters
		n                       int64
		sum, min                float64
	}
	forEachCell(nil, func(cl cell) {
		o := cl.oracle(t)
		at := func(pol Policy, bl int) (r run) {
			atLeafLen(bl, func() {
				r.n = must(cl.plan.WithCounters(&r.count).CountParallelCtx(bg, pol)).Count
				r.sum = must(AggregateParallelCtx(bg, cl.plan.WithCounters(&r.sumC), pol, SumProductSemiring(), sumWeight))
				r.min = must(AggregateParallelCtx(bg, cl.plan.WithCounters(&r.minC), pol, TropicalSemiring(), minWeight))
				if pol.Workers == 1 {
					sameRows(t, fmt.Sprintf("%s len=%d eval", cl, bl), o.canon[cl.i], func(emit func([]int64) bool) (EvalResult, error) {
						return cl.plan.WithCounters(&r.eval).EvalParallelCtx(bg, pol, emit)
					})
				}
			})
			return r
		}
		if cl.pol.Disabled {
			var lc stats.Counters
			inst := must(leapfrog.BuildWith(cl.q, cl.db, cl.plan.Order(), &lc, cl.tries))
			lc.Reset() // the trie builds are not the scan's
			if got := leapfrog.Count(inst); got != o.count {
				t.Fatalf("%s: leapfrog.Count %d, want %d", cl, got, o.count)
			}
			for _, bl := range []int{1, cl.leaf} {
				var c stats.Counters
				atLeafLen(bl, func() { must(cl.plan.WithCounters(&c).CountParallelCtx(bg, Policy{Disabled: true, Workers: 1})) })
				if c != lc {
					t.Fatalf("%s len=%d: no-cache count diverges from leapfrog.Count\ncore:     %+v\nleapfrog: %+v", cl, bl, c, lc)
				}
			}
		}
		for _, w := range []int{1, cl.shard} {
			pol := cl.pol
			pol.Workers = w
			ref, got := at(pol, 1), at(pol, cl.leaf)
			if got.n != ref.n || math.Float64bits(got.sum) != math.Float64bits(ref.sum) || math.Float64bits(got.min) != math.Float64bits(ref.min) {
				t.Fatalf("%s w=%d len=%d: count %d sum %v min %v, scalar %d, %v and %v", cl, w, cl.leaf, got.n, got.sum, got.min, ref.n, ref.sum, ref.min)
			}
			if got.count != ref.count || got.eval != ref.eval || got.sumC != ref.sumC || got.minC != ref.minC {
				t.Fatalf("%s w=%d len=%d: counters diverge\nblock:  %+v %+v %+v %+v\nscalar: %+v %+v %+v %+v",
					cl, w, cl.leaf, got.count, got.eval, got.sumC, got.minC, ref.count, ref.eval, ref.sumC, ref.minC)
			}
		}
	})
}

// TestBatchedEarlyStop checks the one place a block scan is allowed to
// differ from the scalar sequence: an early-stopped scan (consumer
// returning false) may have read ahead to the end of its block, but must
// still terminate cleanly, deliver exactly the requested prefix of the
// canonical order, and stop the sharded producers without leaking
// goroutines (the -race run covers the leak half; here we pin the prefix
// semantics).
func TestBatchedEarlyStop(t *testing.T) {
	g := dataset.PreferentialAttachment(60, 4, 13)
	db := g.DB(false)
	q := queries.Path(4)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nc := Policy{Disabled: true}
	canon := collectTuples(func(emit func([]int64) bool) {
		plan.Eval(nc, emit)
	})
	if len(canon) < 50 {
		t.Skipf("result too small (%d) for the early-stop test", len(canon))
	}
	for _, workers := range latticeWorkers {
		for _, stop := range []int{1, 7, len(canon) / 2} {
			for _, bl := range blockLens {
				atLeafLen(bl, func() {
					var got [][]int64
					res := must(plan.EvalStreamCtx(bg, nc, workers, func(mu []int64) bool {
						got = append(got, append([]int64(nil), mu...))
						return len(got) < stop
					}))
					if len(got) != stop {
						t.Fatalf("w=%d stop=%d len=%d: got %d rows", workers, stop, bl, len(got))
					}
					if res.Emitted != int64(stop) {
						t.Fatalf("w=%d stop=%d len=%d: result reports %d emitted", workers, stop, bl, res.Emitted)
					}
					sameTuples(t, "early-stop prefix", got, canon[:stop])
				})
			}
		}
	}
}
