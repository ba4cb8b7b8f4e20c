package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/factorized"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
)

func TestEvalFactorizedCountsMatch(t *testing.T) {
	g := dataset.PreferentialAttachment(60, 3, 51)
	db := g.DB(false)
	q := queries.Path(5)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Count(Policy{}).Count
	set := plan.EvalFactorized(Policy{})
	if got := set.Count(); got != want {
		t.Fatalf("factorized count = %d, want %d", got, want)
	}
	// The factorized representation must be (much) smaller than the flat
	// result on a skewed path workload.
	if want > 1000 && int64(set.NumEntries()) >= want {
		t.Errorf("factorized entries %d not below flat count %d", set.NumEntries(), want)
	}
}

// expandFactorized enumerates the tuples a factorized result produced by
// EvalFactorized represents, invoking emit with assignments aligned with
// Plan.Order (reused slice; copy to retain). Returning false stops.
func (p *Plan) expandFactorized(s factorized.Set, emit func(mu []int64) bool) {
	if len(s) == 0 {
		return
	}
	e := newEvalExec(context.Background(), p, Policy{Disabled: true}, 0, p.counters, emit)
	e.expandSet(p.root, s, func() bool { return emit(e.mu) })
	e.finish()
}

func TestEvalFactorizedExpansionMatchesNaive(t *testing.T) {
	g := dataset.ErdosRenyi(20, 0.2, 52)
	db := g.DB(false)
	q := queries.Path(4)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set := plan.EvalFactorized(Policy{})

	var got [][]int64
	plan.expandFactorized(set, func(mu []int64) bool {
		got = append(got, append([]int64(nil), mu...))
		return true
	})
	// Reorder to q.Vars() and compare with the oracle.
	order := plan.Order()
	pos := make(map[string]int)
	for d, v := range order {
		pos[v] = d
	}
	for i, tup := range got {
		fixed := make([]int64, len(tup))
		for j, v := range q.Vars() {
			fixed[j] = tup[pos[v]]
		}
		got[i] = fixed
	}
	sort.Slice(got, func(i, j int) bool { return relation.CompareTuples(got[i], got[j]) < 0 })
	want, err := naive.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("expansion produced %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if relation.CompareTuples(got[i], want[i]) != 0 {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEvalFactorizedEarlyStopExpansion(t *testing.T) {
	g := dataset.PreferentialAttachment(60, 3, 53)
	db := g.DB(false)
	plan, err := AutoPlan(queries.Path(4), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set := plan.EvalFactorized(Policy{})
	if set.Count() < 10 {
		t.Skip("result too small")
	}
	n := 0
	plan.expandFactorized(set, func([]int64) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop expanded %d, want 10", n)
	}
}

func TestEvalFactorizedEmpty(t *testing.T) {
	db := relation.NewDB(
		relation.MustNew("E", 2, [][]int64{{1, 2}}),
		relation.MustNew("F", 2, nil),
	)
	q := cq.New(cq.NewAtom("E", "a", "b"), cq.NewAtom("F", "b", "c"))
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if set := plan.EvalFactorized(Policy{}); set.Count() != 0 {
		t.Fatalf("factorized set over empty result counts %d", set.Count())
	}
}

// TestEvalFactorizedHonoursBatchSize pins that EvalFactorized, which
// builds its executor apart from the fold and eval drivers, scans its
// leaves as every other entry does: at every block length it reproduces
// the length-1 (scalar) count with bit-identical stats.Counters.
func TestEvalFactorizedHonoursBatchSize(t *testing.T) {
	db := dataset.PreferentialAttachment(100, 3, 41).DB(false)
	var c stats.Counters
	plan, err := AutoPlan(queries.Path(5), db, AutoOptions{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	run := func(bl int) (n int64, eval stats.Counters) {
		atLeafLen(bl, func() {
			c.Reset()
			n = plan.EvalFactorized(Policy{}).Count()
			eval = c
		})
		return
	}
	want, wantEval := run(1)
	if cnt := plan.Count(Policy{}).Count; want != cnt {
		t.Fatalf("scalar factorized count %d != count %d", want, cnt)
	}
	for _, bl := range blockLens[1:] {
		got, eval := run(bl)
		if got != want {
			t.Errorf("len=%d: factorized count %d, want %d", bl, got, want)
		}
		if eval != wantEval {
			t.Errorf("len=%d: EvalFactorized counters diverge\nblock:  %+v\nscalar: %+v", bl, eval, wantEval)
		}
	}
}
