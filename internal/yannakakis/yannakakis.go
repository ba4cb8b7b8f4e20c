// Package yannakakis implements the YTD baseline of the paper (§5.1):
// Yannakakis's acyclic-join algorithm [25] run over a tree decomposition
// as described by Gottlob et al. [9]. Each bag is materialized with a
// worst-case-optimal join (GenericJoin, realized here as a leapfrog trie
// join over the bag's atoms), the tree is fully semijoin-reduced, and
// counting aggregates adhesion-grouped counts bottom-up rather than
// materializing the full result — the paper's optimization for count
// queries with more than two bags.
package yannakakis

import (
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/leapfrog"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
)

// Engine is a compiled YTD execution: the query, its TD, and the
// materialized, semijoin-reduced bag relations.
type Engine struct {
	query *cq.Query
	tree  *td.TD
	qvars []string

	// bags[v]: materialized tuples over bagVars[v] (variable indices in
	// column order, adhesion variables first).
	bagVars [][]int
	bags    [][][]int64
	// adhCols[v]: column indices (into bag v's schema) of v's adhesion.
	adhCols [][]int

	counters *stats.Counters
}

// New compiles q against db over the given TD (which is validated).
// counters may be nil. Bag relations are joined and fully reduced at
// build time — exactly the up-front intermediate-result computation that
// CLFTJ's flexible caching avoids.
func New(q *cq.Query, db *relation.DB, tree *td.TD, counters *stats.Counters) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := tree.Validate(q); err != nil {
		return nil, err
	}
	e := &Engine{
		query:    q,
		tree:     tree,
		qvars:    q.Vars(),
		bagVars:  make([][]int, tree.N()),
		bags:     make([][][]int64, tree.N()),
		adhCols:  make([][]int, tree.N()),
		counters: counters,
	}
	if err := e.materializeBags(db); err != nil {
		return nil, err
	}
	e.reduce()
	return e, nil
}

// materializeBags computes each bag's relation with a worst-case-optimal
// join over the atoms contained in the bag, plus unary projections
// covering bag variables no contained atom constrains (these arise when a
// separator-based bag spans variables that co-occur only outside it).
func (e *Engine) materializeBags(db *relation.DB) error {
	idx := e.query.VarIndex()
	for v := 0; v < e.tree.N(); v++ {
		bag := e.tree.Bags[v]
		adh := e.tree.Adhesion(v)
		// Column order: adhesion variables first ("the Yannakakis join
		// attributes higher in the trie", §5.1), then the rest ascending.
		cols := append([]int(nil), adh...)
		for _, x := range bag {
			if !containsInt(adh, x) {
				cols = append(cols, x)
			}
		}
		e.bagVars[v] = cols
		e.adhCols[v] = make([]int, len(adh))
		for i, x := range adh {
			e.adhCols[v][i] = indexOfInt(cols, x)
		}

		// Assemble the bag's sub-query.
		inBag := func(vars []string) bool {
			for _, name := range vars {
				if !containsInt(bag, idx[name]) {
					return false
				}
			}
			return true
		}
		var atoms []cq.Atom
		covered := make(map[int]bool)
		subDB := relation.NewDB()
		for _, name := range db.Names() {
			r, _ := db.Get(name)
			subDB.Put(r)
		}
		for _, atom := range e.query.Atoms {
			if inBag(atom.Vars()) {
				atoms = append(atoms, atom)
				for _, name := range atom.Vars() {
					covered[idx[name]] = true
				}
			}
		}
		// Unary coverage projections for unconstrained bag variables.
		for _, x := range bag {
			if covered[x] {
				continue
			}
			name := e.qvars[x]
			ais := e.query.AtomsWithVar(name)
			if len(ais) == 0 {
				return fmt.Errorf("yannakakis: bag variable %s in no atom", name)
			}
			atom := e.query.Atoms[ais[0]]
			rel, err := db.Get(atom.Rel)
			if err != nil {
				return err
			}
			derived, vars, err := leapfrog.DeriveAtomRelation(rel, atom)
			if err != nil {
				return err
			}
			col := indexOfString(vars, name)
			unary, err := derived.Project([]int{col})
			if err != nil {
				return err
			}
			uname := fmt.Sprintf("__dom_%s_%d", name, v)
			subDB.Put(unary.Rename(uname))
			atoms = append(atoms, cq.NewAtom(uname, name))
		}

		subQ := cq.New(atoms...)
		order := make([]string, len(cols))
		for i, x := range cols {
			order[i] = e.qvars[x]
		}
		inst, err := leapfrog.Build(subQ, subDB, order, e.counters)
		if err != nil {
			return err
		}
		var tuples [][]int64
		leapfrog.Eval(inst, func(mu []int64) bool {
			tuples = append(tuples, append([]int64(nil), mu...))
			return true
		})
		if e.counters != nil {
			e.counters.TupleAccesses += int64(len(tuples) * len(cols))
		}
		e.bags[v] = tuples
	}
	return nil
}

// reduce runs the full reducer: a bottom-up semijoin pass (parent ⋉ child
// on the child's adhesion) followed by a top-down pass (child ⋉ parent).
func (e *Engine) reduce() {
	post := e.postorder()
	// Bottom-up.
	for _, v := range post {
		for _, c := range e.tree.Children[v] {
			e.semijoin(v, c)
		}
	}
	// Top-down (preorder).
	for _, v := range e.tree.Preorder() {
		for _, c := range e.tree.Children[v] {
			e.semijoinChild(c, v)
		}
	}
}

func (e *Engine) postorder() []int {
	var out []int
	var walk func(v int)
	walk = func(v int) {
		for _, c := range e.tree.Children[v] {
			walk(c)
		}
		out = append(out, v)
	}
	walk(e.tree.Root)
	return out
}

// adhKeyOfChild projects a parent tuple onto child c's adhesion.
func (e *Engine) adhKeyOfChild(parent int, tup []int64, c int) string {
	adh := e.tree.Adhesion(c)
	vals := make([]int64, len(adh))
	for i, x := range adh {
		vals[i] = tup[indexOfInt(e.bagVars[parent], x)]
	}
	if e.counters != nil {
		e.counters.TupleAccesses += int64(len(adh))
	}
	return relation.Key(vals)
}

// adhKeySelf projects a bag-v tuple onto v's own adhesion columns.
func (e *Engine) adhKeySelf(v int, tup []int64) string {
	vals := make([]int64, len(e.adhCols[v]))
	for i, c := range e.adhCols[v] {
		vals[i] = tup[c]
	}
	if e.counters != nil {
		e.counters.TupleAccesses += int64(len(vals))
	}
	return relation.Key(vals)
}

// semijoin keeps the parent tuples whose projection onto child c's
// adhesion appears in c.
func (e *Engine) semijoin(parent, c int) {
	keys := make(map[string]bool, len(e.bags[c]))
	for _, t := range e.bags[c] {
		keys[e.adhKeySelf(c, t)] = true
	}
	if e.counters != nil {
		e.counters.HashAccesses += int64(len(e.bags[c]) + len(e.bags[parent]))
	}
	kept := e.bags[parent][:0]
	for _, t := range e.bags[parent] {
		if keys[e.adhKeyOfChild(parent, t, c)] {
			kept = append(kept, t)
		}
	}
	e.bags[parent] = kept
}

// semijoinChild keeps the child tuples whose adhesion projection appears
// in the parent.
func (e *Engine) semijoinChild(c, parent int) {
	keys := make(map[string]bool, len(e.bags[parent]))
	for _, t := range e.bags[parent] {
		keys[e.adhKeyOfChild(parent, t, c)] = true
	}
	if e.counters != nil {
		e.counters.HashAccesses += int64(len(e.bags[parent]) + len(e.bags[c]))
	}
	kept := e.bags[c][:0]
	for _, t := range e.bags[c] {
		if keys[e.adhKeySelf(c, t)] {
			kept = append(kept, t)
		}
	}
	e.bags[c] = kept
}

// Count returns |q(D)| by the adhesion-grouped dynamic program: cnt(v,a)
// is the number of assignments to the subtree below v consistent with
// adhesion assignment a; a parent tuple contributes the product of its
// children's counts.
func (e *Engine) Count() int64 {
	cnt := make([]map[string]int64, e.tree.N())
	for _, v := range e.postorder() {
		m := make(map[string]int64)
		for _, t := range e.bags[v] {
			prod := int64(1)
			for _, c := range e.tree.Children[v] {
				k := e.adhKeyOfChild(v, t, c)
				prod *= cnt[c][k]
				if e.counters != nil {
					e.counters.HashAccesses++
				}
				if prod == 0 {
					break
				}
			}
			if prod != 0 {
				m[e.adhKeySelf(v, t)] += prod
				if e.counters != nil {
					e.counters.HashAccesses++
				}
			}
		}
		cnt[v] = m
	}
	var total int64
	for _, n := range cnt[e.tree.Root] {
		total += n
	}
	return total
}

// Eval enumerates q(D), calling emit with assignments over q.Vars()
// order. The slice is reused; emit must copy to retain. Returning false
// stops the enumeration.
func (e *Engine) Eval(emit func(tuple []int64) bool) {
	// Index each non-root bag by its adhesion.
	index := make([]map[string][][]int64, e.tree.N())
	for v := 0; v < e.tree.N(); v++ {
		if v == e.tree.Root {
			continue
		}
		m := make(map[string][][]int64)
		for _, t := range e.bags[v] {
			k := e.adhKeySelf(v, t)
			m[k] = append(m[k], t)
		}
		if e.counters != nil {
			e.counters.HashAccesses += int64(len(e.bags[v]))
		}
		index[v] = m
	}
	mu := make([]int64, len(e.qvars))
	var rec func(v int, t []int64, next func() bool) bool
	rec = func(v int, t []int64, next func() bool) bool {
		for i, x := range e.bagVars[v] {
			mu[x] = t[i]
		}
		if e.counters != nil {
			e.counters.TupleAccesses += int64(len(t))
		}
		var children func(j int) bool
		children = func(j int) bool {
			if j == len(e.tree.Children[v]) {
				return next()
			}
			c := e.tree.Children[v][j]
			k := e.adhKeyOfChild(v, t, c)
			if e.counters != nil {
				e.counters.HashAccesses++
			}
			for _, ct := range index[c][k] {
				if !rec(c, ct, func() bool { return children(j + 1) }) {
					return false
				}
			}
			return true
		}
		return children(0)
	}
	for _, t := range e.bags[e.tree.Root] {
		if !rec(e.tree.Root, t, func() bool { return emit(mu) }) {
			return
		}
	}
}

// Count runs YTD count over q with an automatically selected TD.
func Count(q *cq.Query, db *relation.DB, tree *td.TD, counters *stats.Counters) (int64, error) {
	e, err := New(q, db, tree, counters)
	if err != nil {
		return 0, err
	}
	return e.Count(), nil
}

func containsInt(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

func indexOfInt(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func indexOfString(xs []string, v string) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
