package td

import (
	"sort"

	"repro/internal/cq"
)

// This file implements the greedy, stats-free variable orderer: instead
// of scoring candidate orders with a data-dependent cost model (which
// requires building one trie set per candidate decomposition, see
// CostConfig.OrderCost), it ranks join variables by properties visible
// in the query pattern alone — constant specialization and
// shared-variable connectivity — in the spirit of "When Greedy Beats
// Optimal: Join Ordering for Pattern-Based Datalog Queries Without
// Statistics". Ranking is O(vars·atoms); no index is touched. The
// normative description of the ranking rules lives in docs/PLANNING.md.

// GreedyRank is one variable's greedy ranking key. Variables are ordered
// by Less: constant-specialized first, then descending
// connectivity, then ascending minimum covering-atom arity, then
// ascending first-appearance index (the deterministic tiebreak).
type GreedyRank struct {
	// Constants counts the atoms covering the variable that also carry
	// at least one constant argument: the constant selects the atom's
	// relation down before the join starts, so such variables are the
	// pattern-visible selective ones and rank first.
	Constants int
	// Coverage counts the atoms covering the variable — its
	// shared-variable connectivity. High-coverage variables intersect
	// more legs per value and rank earlier.
	Coverage int
	// MinArity is the smallest arity among the covering atoms (ties on
	// Constants and Coverage break toward tighter atoms: a variable
	// constrained by a binary atom beats one constrained only by wide
	// relations). 0 when the variable is covered by no atom.
	MinArity int
	// Index is the variable's first-appearance index in query.Vars(),
	// the final deterministic tiebreak.
	Index int
}

// Less reports whether r ranks strictly before o in the greedy order.
func (r GreedyRank) Less(o GreedyRank) bool {
	if (r.Constants > 0) != (o.Constants > 0) {
		return r.Constants > 0
	}
	if r.Constants != o.Constants {
		return r.Constants > o.Constants
	}
	if r.Coverage != o.Coverage {
		return r.Coverage > o.Coverage
	}
	if r.MinArity != o.MinArity {
		return r.MinArity < o.MinArity
	}
	return r.Index < o.Index
}

// GreedyConfig tunes greedy selection. It has no settings: greedy
// planning reads the query pattern alone.
type GreedyConfig struct{}

// inversionPenalty is the cost added per ranking inversion when scoring
// candidate decompositions: how strongly TD selection prefers trees
// whose compatible orders agree with the greedy ranking, against the
// structural terms of Cost.
const inversionPenalty = 2.0

// GreedyRanks computes the per-variable ranking keys of q (indexed like
// query.Vars()).
func GreedyRanks(q *cq.Query) []GreedyRank {
	idx := q.VarIndex()
	ranks := make([]GreedyRank, len(idx))
	for i := range ranks {
		ranks[i].Index = i
	}
	for _, atom := range q.Atoms {
		hasConst := false
		for _, t := range atom.Args {
			if !t.IsVar() {
				hasConst = true
				break
			}
		}
		arity := len(atom.Args)
		for _, v := range atom.Vars() {
			r := &ranks[idx[v]]
			r.Coverage++
			if hasConst {
				r.Constants++
			}
			if r.MinArity == 0 || arity < r.MinArity {
				r.MinArity = arity
			}
		}
	}
	return ranks
}

// SelectGreedy picks a TD of q without any data-dependent cost
// evaluation — and without the §4.2 separator-driven candidate search,
// which dominates planning time once probes are gone. It considers
// exactly two structurally distinct decompositions: the min-fill clique
// tree (small bags, the caching-friendly shape) and the singleton
// fallback (CLFTJ degenerates to LFTJ). Candidates are scored by the
// structural terms of Cost (adhesion dimension, bag count, depth — no
// skew, no order-cost probes) plus an agreement penalty counting the
// greedy-ranking inversions of the candidate's greedy-compatible order.
// It returns the selected TD — its children reordered so the preorder
// follows the greedy ranking — together with that strongly compatible
// variable order. Like Select, single-bag TDs are returned only when
// nothing better exists.
func SelectGreedy(q *cq.Query, opts Options, _ GreedyConfig) (*TD, []int) {
	numVars := len(q.Vars())
	ranks := GreedyRanks(q)

	opts = opts.withDefaults()
	all := make([]int, numVars)
	for i := range all {
		all[i] = i
	}
	cands := []*TD{MustNew([][]int{all}, []int{-1})}
	if mf := MinFillDecompose(q); mf.MaxAdhesion() <= opts.MaxAdhesion {
		cands = append(cands, mf.EliminateRedundancy())
	}

	type scored struct {
		t     *TD
		order []int
		cost  float64
	}
	var ss []scored
	for _, t := range cands {
		rt, order := greedyReorder(t, ranks, numVars)
		cost := Cost(rt, CostConfig{}) + inversionPenalty*float64(inversions(order, ranks))
		ss = append(ss, scored{rt, order, cost})
	}
	sort.SliceStable(ss, func(i, j int) bool {
		mi, mj := ss[i].t.N() > 1, ss[j].t.N() > 1
		if mi != mj {
			return mi
		}
		return ss[i].cost < ss[j].cost
	})
	return ss[0].t, ss[0].order
}

// greedyReorder returns a copy of t whose children lists are sorted by
// the best greedy rank among the variables each child subtree introduces
// (variables not already in the parent bag), together with the
// greedy-compatible order: a preorder walk appending each bag's unseen
// variables best-rank-first. The order is strongly compatible with the
// returned TD by construction — it is generated by a preorder walk, so a
// variable's position always follows its owner bag's preorder position.
func greedyReorder(t *TD, ranks []GreedyRank, numVars int) (*TD, []int) {
	// introduced[v] = best rank among subtree(v)'s variables outside
	// v's parent bag; used to sort siblings.
	best := make([]GreedyRank, t.N())
	var fill func(v int)
	fill = func(v int) {
		b := GreedyRank{Index: numVars} // worst possible
		seed := false
		consider := func(r GreedyRank) {
			if !seed || r.Less(b) {
				b, seed = r, true
			}
		}
		for _, x := range t.Bags[v] {
			if x < numVars && (v == t.Root || !containsSorted(t.Bags[t.Parent[v]], x)) {
				consider(ranks[x])
			}
		}
		for _, c := range t.Children[v] {
			fill(c)
			consider(best[c])
		}
		best[v] = b
	}
	fill(t.Root)

	rt := &TD{
		Bags:     t.Bags,
		Parent:   t.Parent,
		Children: make([][]int, t.N()),
		Root:     t.Root,
	}
	for v, cs := range t.Children {
		sorted := append([]int(nil), cs...)
		sort.SliceStable(sorted, func(i, j int) bool {
			return best[sorted[i]].Less(best[sorted[j]])
		})
		rt.Children[v] = sorted
	}

	var order []int
	seen := make([]bool, numVars)
	var walk func(v int)
	walk = func(v int) {
		var fresh []int
		for _, x := range rt.Bags[v] {
			if x < numVars && !seen[x] {
				seen[x] = true
				fresh = append(fresh, x)
			}
		}
		sort.SliceStable(fresh, func(i, j int) bool {
			return ranks[fresh[i]].Less(ranks[fresh[j]])
		})
		order = append(order, fresh...)
		for _, c := range rt.Children[v] {
			walk(c)
		}
	}
	walk(rt.Root)
	for x := 0; x < numVars; x++ {
		if !seen[x] {
			order = append(order, x)
		}
	}
	return rt, order
}

// inversions counts the pairs of order positions i < j where order[j]
// ranks strictly before order[i] — how far the TD-constrained order is
// from the unconstrained greedy ranking.
func inversions(order []int, ranks []GreedyRank) int {
	n := 0
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if ranks[order[j]].Less(ranks[order[i]]) {
				n++
			}
		}
	}
	return n
}
