package core

import (
	"math"

	"repro/internal/cq"
	"repro/internal/leapfrog"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
	"repro/internal/trie"
)

// Orderer names a planning strategy for AutoPlan: how the tree
// decomposition and its strongly compatible variable order are chosen.
// The planner taxonomy and the exact ranking rules are normative in
// docs/PLANNING.md.
type Orderer string

const (
	// OrdererGreedy is the default, stats-free strategy: rank variables
	// by constant-specialized atoms, then shared-variable connectivity
	// (td.GreedyOrder) and select a TD by structural terms plus ranking
	// agreement — O(vars·atoms) planning, no index ever touched. The
	// empty Orderer means OrdererGreedy.
	OrdererGreedy Orderer = "greedy"
	// OrdererCost is the paper's §4 planner, opt-in by name: enumerate
	// TD candidates and score them with the full heuristic cost model
	// (adhesion dimension, bag count, depth, data skew, estimated order
	// cost — the expensive term, one probe trie set per candidate). The
	// experiment drivers that reproduce the paper's figures name it.
	OrdererCost Orderer = "cost"
	// OrdererAdaptive plans like OrdererGreedy; engines layered above
	// (package server) additionally observe executions of the cached
	// plan and re-plan with demoted variables when the observed trie
	// traffic diverges from the plan's baseline execution. At this layer
	// it differs from OrdererGreedy only in honoring AutoOptions.Demote.
	OrdererAdaptive Orderer = "adaptive"
)

// Valid reports whether o names a known strategy ("" counts: it means
// OrdererGreedy).
func (o Orderer) Valid() bool {
	switch o {
	case "", OrdererCost, OrdererGreedy, OrdererAdaptive:
		return true
	}
	return false
}

// Resolve returns the strategy o stands for: OrdererGreedy for "", o
// itself otherwise. Two spellings of one strategy resolve alike, so a
// cache keyed on the resolved value holds one plan for both.
func (o Orderer) Resolve() Orderer {
	if o == "" {
		return OrdererGreedy
	}
	return o
}

// AutoOptions configures automatic plan selection.
type AutoOptions struct {
	// Orderer selects the planning strategy ("" = OrdererGreedy). Only
	// OrdererCost runs the cost model — skew probes and order-cost trie
	// builds included; greedy and adaptive plan from the pattern alone.
	Orderer Orderer
	// Demote lists variable names pushed to the back of the greedy
	// ranking (execution feedback from always-empty intersection levels;
	// see AlwaysEmptyLevels). Ignored under OrdererCost.
	Demote []string
	// Counters is the accounting sink for the final plan (may be nil).
	Counters *stats.Counters
	// Tries is an optional shared trie source (a trie.Registry): both
	// the order-cost probes and the final plan draw their indices from
	// it, so a long-lived engine compiles repeated queries without a
	// single trie build. May be nil.
	Tries leapfrog.TrieSource
	// BuildWorkers bounds the goroutines each private trie build of the
	// final plan may use (0 or 1: sequential; < 0: one per core); see
	// leapfrog.BuildOpts.Workers. Private order-cost probe builds stay
	// sequential — they are throwaway and already amortized.
	BuildWorkers int
}

// AutoPlan selects a tree decomposition and strongly compatible variable
// order for q (AutoSelect) and compiles them. Under the default
// OrdererGreedy (and OrdererAdaptive) it ranks variables from the query
// pattern alone (td.SelectGreedy): planning touches no data. Under
// OrdererCost, named explicitly, selection follows §4: enumerate
// decompositions biased toward small adhesions, score them with the
// heuristic cost model (adhesion dimension, bag count, depth, data
// skew, estimated order cost) and compile the best. BenchmarkAutoPlan
// pits the two planning costs against each other.
func AutoPlan(q *cq.Query, db *relation.DB, opts AutoOptions) (*Plan, error) {
	tree, order, err := AutoSelect(q, db, opts)
	if err != nil {
		return nil, err
	}
	return newPlan(q, db, tree, order, leapfrog.BuildOpts{
		Counters: opts.Counters,
		Tries:    opts.Tries,
		Workers:  opts.BuildWorkers,
	})
}

// AutoSelect is the planning stage of AutoPlan alone: it returns the
// tree decomposition and strongly compatible variable order AutoPlan
// would compile, without building the plan (no final-plan trie work).
// Under OrdererCost the order-cost probes still touch data — and still
// charge shared-source builds to opts.Counters — because they ARE
// planning; under every other orderer, the default included, no index
// is ever opened.
func AutoSelect(q *cq.Query, db *relation.DB, opts AutoOptions) (*td.TD, []string, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	qvars := q.Vars()
	if opts.Orderer != OrdererCost {
		tree, orderIdx := td.SelectGreedy(q, td.Options{}, td.GreedyConfig{Demote: opts.Demote})
		order := make([]string, len(orderIdx))
		for d, xi := range orderIdx {
			order[d] = qvars[xi]
		}
		return tree, order, nil
	}
	// Probe builds are excluded from accounting (the paper measures the
	// run, not plan selection) — except for builds that land in a shared
	// trie source: those are real, once-per-engine work that the
	// triggering query must be charged for, and must NOT be charged to
	// later queries that reuse them (the registry prewarms here, before
	// the final plan compiles). A constant atom probes the shared index
	// under its constant like any other atom; the private probe tries
	// left (every atom without a source, atoms with a repeated variable
	// with one) are throwaway and stay unaccounted, so a warm repeat of
	// any query shape reports zero probe builds.
	probeTries := opts.Tries
	if opts.Tries != nil {
		probeTries = chargedSource{src: opts.Tries, c: opts.Counters}
	}
	orderCost := func(orderIdx []int) float64 {
		names := make([]string, len(orderIdx))
		for d, xi := range orderIdx {
			names[d] = qvars[xi]
		}
		inst, err := leapfrog.BuildWith(q, db, names, nil, probeTries)
		if err != nil {
			return math.Inf(1)
		}
		return inst.EstimateOrderCost()
	}
	tree, orderIdx := td.Select(q, td.Options{}, td.CostConfig{
		VarSkew:   varSkewFunc(q, db),
		OrderCost: orderCost,
	})
	order := make([]string, len(orderIdx))
	for d, xi := range orderIdx {
		order[d] = qvars[xi]
	}
	return tree, order, nil
}

// chargedSource redirects a trie source's accounting to a fixed sink:
// the order-cost probes build instances with nil counters (what they
// build privately is throwaway), but shared-source builds outlive the
// probe and must be charged to the query that triggered them.
type chargedSource struct {
	src leapfrog.TrieSource
	c   *stats.Counters
}

func (s chargedSource) Trie(rel *relation.Relation, perm []int, _ *stats.Counters) (*trie.Trie, error) {
	return s.src.Trie(rel, perm, s.c)
}

// varSkewFunc derives a per-variable skew coefficient from the database:
// the maximum skew of any relation column the variable is matched
// against. A column's skew is memoized on the relation itself, so only
// the first plan over a relation version scans it.
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
