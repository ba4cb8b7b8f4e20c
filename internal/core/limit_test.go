package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
)

// TestEvalLimitOracle holds what a capped eval charges to the full
// enumeration's charges; the sweep holds its rows and its count to the
// oracle. In every cell, at limits 1, 7, |q(D)|−1, |q(D)| and |q(D)|+1, a
// run at the cell's shard count must emit the first limit rows of the
// plan's no-cache sequence and report and charge exactly what the
// Workers: 1 run does: an enumeration never shards. On one worker a
// limited run must charge exactly the full enumeration's accesses under
// the same policy when the limit is not below |q(D)|, the policy caches
// nothing or the plan has no cache site: the counting tail then has
// nothing to skip. Under unbounded caches it must charge no more. A
// bounded or support-gated cache gives no such bound: the probes the
// counting tail skips leave another cache state behind (see
// TestInnerCountCharges).
func TestEvalLimitOracle(t *testing.T) {
	t.Parallel()
	discard := func([]int64) bool { return true }
	forEachCell(nil, func(cl cell) {
		canon := cl.oracle(t).canon[cl.i]
		one, par := cl.pol, cl.pol
		one.Workers, par.Workers = 1, cl.shard
		var full stats.Counters
		n := must(cl.plan.WithCounters(&full).EvalParallelCtx(bg, one, discard)).Emitted
		sites := slices.Contains(cl.plan.cacheable, true)
		for _, limit := range []int64{1, 7, n - 1, n, n + 1} {
			if limit < 1 {
				continue
			}
			var c, cp stats.Counters
			r := must(cl.plan.WithCounters(&c).EvalLimitCtx(bg, one, int(limit), discard))
			rp := sameRows(t, fmt.Sprintf("%s workers %d limit %d", cl, cl.shard, limit), canon[:min(limit, n)], func(emit func([]int64) bool) (EvalResult, error) {
				return cl.plan.WithCounters(&cp).EvalLimitCtx(bg, par, int(limit), emit)
			})
			if rp != r || cp != c {
				t.Fatalf("%s workers %d limit %d: %+v charging %+v, Workers: 1 %+v charging %+v", cl, cl.shard, limit, rp, cp, r, c)
			}
			if unbounded(one) && c.Total() > full.Total() {
				t.Fatalf("%s limit %d: charged %d accesses, the full enumeration %d\nlimited: %+v\nfull:    %+v", cl, limit, c.Total(), full.Total(), c, full)
			}
			if (limit >= n || one.Disabled || !sites) && c != full {
				t.Fatalf("%s limit %d: charges differ from the full enumeration's\nlimited: %+v\nfull:    %+v", cl, limit, c, full)
			}
		}
	})
}
