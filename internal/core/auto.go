package core

import (
	"math"

	"repro/internal/cq"
	"repro/internal/leapfrog"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
)

// AutoOptions configures automatic plan selection.
type AutoOptions struct {
	// Counters is the accounting sink for the final plan (may be nil).
	Counters *stats.Counters
	// Tries is an optional shared trie source (a trie.Registry) the
	// final plan draws its indices from, so a long-lived engine compiles
	// repeated queries without a single trie build. May be nil.
	Tries leapfrog.TrieSource
	// BuildWorkers is ignored: a trie build sizes its own chunks
	// (trie.Build), and selection reads no option.
	BuildWorkers int
}

// AutoPlan selects a tree decomposition and strongly compatible variable
// order for q (AutoSelect) and compiles them. BenchmarkAutoPlan times
// what a plan-cache miss pays.
func AutoPlan(q *cq.Query, db *relation.DB, opts AutoOptions) (*Plan, error) {
	tree, order, err := AutoSelect(q, db, opts)
	if err != nil {
		return nil, err
	}
	return newPlan(q, db, tree, order, leapfrog.BuildOpts{Counters: opts.Counters, Tries: opts.Tries})
}

// AutoSelect is the planning stage of AutoPlan alone: it returns the
// tree decomposition and strongly compatible variable order AutoPlan
// would compile. It is the serving planner: it ranks variables from the
// query pattern alone (td.SelectGreedy), so no index is opened and the
// plan is a function of the query text (db and opts do not enter
// selection). The ranking rules are normative in docs/PLANNING.md.
func AutoSelect(q *cq.Query, db *relation.DB, opts AutoOptions) (*td.TD, []string, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	tree, orderIdx := td.SelectGreedy(q, td.Options{}, td.GreedyConfig{})
	return tree, varNames(q, orderIdx), nil
}

// CostSelect is the paper's §4 planner, which only the experiment
// drivers that reproduce the paper's figures use: enumerate
// decompositions biased toward small adhesions and score them with the
// full heuristic cost model (adhesion dimension, bag count, depth, data
// skew, estimated order cost). The order-cost term builds one private
// probe trie set per candidate; the probes are throwaway and charged to
// no counters. Compile the result with NewPlan.
func CostSelect(q *cq.Query, db *relation.DB) (*td.TD, []string, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	orderCost := func(orderIdx []int) float64 {
		inst, err := leapfrog.BuildWith(q, db, varNames(q, orderIdx), nil, nil)
		if err != nil {
			return math.Inf(1)
		}
		return inst.EstimateOrderCost()
	}
	tree, orderIdx := td.Select(q, td.Options{}, td.CostConfig{
		VarSkew:   varSkewFunc(q, db),
		OrderCost: orderCost,
	})
	return tree, varNames(q, orderIdx), nil
}

// varNames maps variable indices (positions in q.Vars()) to names.
func varNames(q *cq.Query, idx []int) []string {
	qvars := q.Vars()
	names := make([]string, len(idx))
	for d, xi := range idx {
		names[d] = qvars[xi]
	}
	return names
}

// varSkewFunc derives a per-variable skew coefficient from the database:
// the maximum skew of any relation column the variable is matched
// against, each column scanned once per call.
func varSkewFunc(q *cq.Query, db *relation.DB) func(int) float64 {
	idx := q.VarIndex()
	skews := make([]float64, len(idx))
	for _, atom := range q.Atoms {
		rel, err := db.Get(atom.Rel)
		if err != nil || rel.Arity() != len(atom.Args) {
			continue
		}
		for col, t := range atom.Args {
			if !t.IsVar() {
				continue
			}
			if s := rel.ColumnSkew(col); s > skews[idx[t.Var]] {
				skews[idx[t.Var]] = s
			}
		}
	}
	return func(x int) float64 {
		if x < 0 || x >= len(skews) {
			return 0
		}
		return skews[x]
	}
}
