package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/td"
)

// Figure10 reproduces Fig. 10: count runtimes under different overall
// cache capacities — {4,6}-cycle on the IMDB stand-in and 6-cycle on the
// wiki-Vote stand-in. Capacity 0 rows are pure LFTJ (caching disabled);
// "full" is unbounded.
func Figure10(cfg Config) *Table {
	capacities := []int{100, 400, 1600, 6400, 25600}
	if cfg.Quick {
		capacities = []int{16, 64, 256, 1024}
	}
	t := &Table{
		ID:     "E7 (Fig. 10)",
		Title:  "count runtimes (ms) vs overall cache capacity",
		Header: []string{"workload", "capacity", "count", "time ms", "speedup vs LFTJ", "hit rate", "entries"},
	}
	type workload struct {
		name string
		q    *cq.Query
		db   *relation.DB
	}
	imdb := cfg.imdb()
	wiki := cfg.graphs()[0].DB(false)
	ws := []workload{
		{"IMDB* 4-cycle", queries.IMDBCycle(2), imdb},
		{"IMDB* 6-cycle", queries.IMDBCycle(3), imdb},
		{"wiki-Vote* 6-cycle", queries.Cycle(6), wiki},
	}
	for _, w := range ws {
		base := RunCLFTJ(w.q, w.db, core.Policy{Disabled: true})
		addRow := func(label string, m Measurement) {
			t.Rows = append(t.Rows, []string{
				w.name, label, itoa64(m.Count), m.ms(), m.Speedup(base),
				fmt.Sprintf("%.2f", m.Counters.HitRate()),
				itoa64(m.Counters.CacheInserts - m.Counters.CacheEvictions),
			})
		}
		addRow("0 (LFTJ)", base)
		for _, c := range capacities {
			addRow(fmt.Sprintf("%d", c), RunCLFTJ(w.q, w.db, core.Policy{Capacity: c}))
		}
		addRow("full", RunCLFTJ(w.q, w.db, core.Policy{}))
	}
	t.Notes = append(t.Notes,
		"paper shape: speedup grows with capacity and small caches already capture most of the benefit; the skewed wiki-Vote workload saturates at a small cache")
	return t
}

// lollipopTDs builds the three cache structures of Fig. 12 over the
// {3,2}-lollipop (variables x1..x5; triangle x1x2x3, tail x3-x4-x5):
//
//	CS1: {x1,x2,x3}-{x3,x4,x5}            one 1-dim cache (adh {x3})
//	CS2: {x1,x2,x3}-{x3,x4}-{x4,x5}       two 1-dim caches
//	CS3: {x1,x2,x3}-{x2,x3,x4}-{x4,x5}    one 2-dim + one 1-dim cache
//
// All three have width 2 — the experiment shows treewidth alone does not
// determine caching quality; adhesion dimensionality does.
func lollipopTDs() map[string]*td.TD {
	return map[string]*td.TD{
		"CS1": td.MustNew([][]int{{0, 1, 2}, {2, 3, 4}}, []int{-1, 0}),
		"CS2": td.MustNew([][]int{{0, 1, 2}, {2, 3}, {3, 4}}, []int{-1, 0, 1}),
		"CS3": td.MustNew([][]int{{0, 1, 2}, {1, 2, 3}, {3, 4}}, []int{-1, 0, 1}),
	}
}

// Figure11 reproduces Fig. 11: the {3,2}-lollipop count query under the
// three cache structures of Fig. 12, against plain LFTJ.
func Figure11(cfg Config) *Table {
	q := queries.Lollipop(3, 2)
	t := &Table{
		ID:     "E8 (Fig. 11/12)",
		Title:  "{3,2}-lollipop count under different cache structures (same treewidth)",
		Header: []string{"dataset", "structure", "cache dims", "count", "time ms", "speedup vs LFTJ", "hit rate"},
	}
	gs := cfg.graphs()
	for _, g := range []int{0, 4} { // wiki-Vote*, ego-Twitter*
		db := gs[g].DB(false)
		base := RunLFTJ(q, db, nil)
		t.Rows = append(t.Rows, []string{gs[g].Name, "LFTJ", "-", itoa64(base.Count), base.ms(), "1.0x", "-"})
		for _, name := range []string{"CS1", "CS2", "CS3"} {
			tree := lollipopTDs()[name]
			order := orderNames(q, tree.CompatibleOrder(len(q.Vars())))
			m := RunCLFTJWith(q, db, tree, order, core.Policy{})
			if err := verifyCounts(base, m); err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s %s: %v", gs[g].Name, name, err))
			}
			dims := fmt.Sprintf("%v", cacheDims(q, tree, order, db))
			t.Rows = append(t.Rows, []string{
				gs[g].Name, name, dims, itoa64(m.Count), m.ms(), m.Speedup(base),
				fmt.Sprintf("%.2f", m.Counters.HitRate()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: CS2 (two 1-dim caches) beats CS1 (one 1-dim) beats CS3 (2-dim cache) — target small adhesions, not just small treewidth")
	return t
}

func cacheDims(q *cq.Query, tree *td.TD, order []string, db *relation.DB) []int {
	plan, err := core.NewPlan(q, db, tree, order, nil)
	if err != nil {
		return nil
	}
	return plan.CacheDims()
}

// imdbTDs builds TD1 (person-keyed caches) and TD2 (movie-keyed caches)
// of Fig. 14 for the IMDB 4-cycle and 6-cycle. The decompositions are
// isomorphic; only which attribute family forms the adhesions differs.
func imdbTDs(k int, q *cq.Query) (td1, td2 *td.TD) {
	idx := q.VarIndex()
	p := func(i int) int { return idx[fmt.Sprintf("p%d", i)] }
	m := func(i int) int { return idx[fmt.Sprintf("m%d", i)] }
	switch k {
	case 2:
		td1 = td.MustNew([][]int{{p(1), p(2), m(1)}, {p(1), p(2), m(2)}}, []int{-1, 0})
		td2 = td.MustNew([][]int{{p(1), m(1), m(2)}, {m(1), m(2), p(2)}}, []int{-1, 0})
	case 3:
		td1 = td.MustNew([][]int{
			{m(1), p(2), p(1)},
			{p(2), p(1), p(3)},
			{p(2), p(3), m(2)},
			{p(1), p(3), m(3)},
		}, []int{-1, 0, 1, 1})
		td2 = td.MustNew([][]int{
			{p(1), m(1), m(3)},
			{m(1), m(3), m(2)},
			{m(1), m(2), p(2)},
			{m(3), m(2), p(3)},
		}, []int{-1, 0, 1, 1})
	default:
		panic("imdbTDs: only k=2 (4-cycle) and k=3 (6-cycle) are defined")
	}
	return td1, td2
}

// Figure13 reproduces Fig. 13/14: the IMDB 4-cycle and 6-cycle counts
// under TD1 (caches keyed on the skewed person ids) versus TD2 (caches
// keyed on the near-uniform movie ids), plus plain LFTJ under each TD's
// imposed variable order and under the natural order.
func Figure13(cfg Config) *Table {
	db := cfg.imdb()
	t := &Table{
		ID:     "E9 (Fig. 13/14)",
		Title:  "IMDB cycles: person-keyed (TD1) vs movie-keyed (TD2) caches",
		Header: []string{"query", "run", "count", "time ms", "hit rate", "est. order cost"},
	}
	for _, k := range []int{2, 3} {
		q := queries.IMDBCycle(k)
		name := fmt.Sprintf("%d-cycle", 2*k)
		td1, td2 := imdbTDs(k, q)
		for _, tc := range []struct {
			label string
			tree  *td.TD
		}{{"CLFTJ TD1 (person)", td1}, {"CLFTJ TD2 (movie)", td2}} {
			order := orderNames(q, tc.tree.CompatibleOrder(len(q.Vars())))
			m := RunCLFTJWith(q, db, tc.tree, order, core.Policy{})
			t.Rows = append(t.Rows, []string{
				name, tc.label, itoa64(m.Count), m.ms(),
				fmt.Sprintf("%.2f", m.Counters.HitRate()),
				fmt.Sprintf("%.3g", estimateOrderCost(q, db, order)),
			})
		}
		for _, tc := range []struct {
			label string
			order []string
		}{
			{"LFTJ (TD1 order)", orderNames(q, td1.CompatibleOrder(len(q.Vars())))},
			{"LFTJ (TD2 order)", orderNames(q, td2.CompatibleOrder(len(q.Vars())))},
			{"LFTJ (natural order)", q.Vars()},
		} {
			m := RunLFTJ(q, db, tc.order)
			t.Rows = append(t.Rows, []string{
				name, tc.label, itoa64(m.Count), m.ms(), "-",
				fmt.Sprintf("%.3g", estimateOrderCost(q, db, tc.order)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: TD1 (skewed person adhesions) outruns the isomorphic TD2; the order-cost estimate (Chu et al. [7]) ranks TD2's order costlier")
	return t
}

func estimateOrderCost(q *cq.Query, db *relation.DB, order []string) float64 {
	inst, err := buildInstance(q, db, order)
	if err != nil {
		return -1
	}
	return inst.EstimateOrderCost()
}

// Experiment pairs an experiment ID with its (lazy) driver.
type Experiment struct {
	ID  string
	Run func(Config) *Table
}

// Experiments lists every driver in paper order. IDs match the tables'.
func Experiments() []Experiment {
	return []Experiment{
		{"E1 (§1)", IntroMemoryAccesses},
		{"E2 (Fig. 5)", Figure5},
		{"E3 (Fig. 6)", Figure6},
		{"E4 (Fig. 7)", Figure7},
		{"E5 (Fig. 8)", Figure8},
		{"E6 (Fig. 9)", Figure9},
		{"E7 (Fig. 10)", Figure10},
		{"E8 (Fig. 11/12)", Figure11},
		{"E9 (Fig. 13/14)", Figure13},
		{"E10 (ablation)", Ablation},
		{"E11 (parallel)", ParallelSpeedup},
		{"E13 (updates)", IncrementalUpdates},
	}
}
