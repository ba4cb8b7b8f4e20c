// Package naive evaluates full CQs by brute-force backtracking over
// atoms. It is the correctness oracle for the test suite: every join
// engine in this repository is checked against it on randomized inputs.
// It is deliberately simple — full relation scans, no indices.
package naive

import (
	"sort"

	"repro/internal/cq"
	"repro/internal/relation"
)

// Eval returns q(D) as tuples over q.Vars() (first-appearance order),
// sorted lexicographically and deduplicated.
func Eval(q *cq.Query, db *relation.DB) ([][]int64, error) {
	vars := q.Vars()
	idx := q.VarIndex()
	rels := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := db.Get(a.Rel)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	// cols[ai][col] is the position in mu of atom ai's column col (-1: a
	// constant), resolved once; newly[ai] is the buffer of variables
	// atom ai's current tuple binds.
	cols := make([][]int, len(q.Atoms))
	newly := make([][]int, len(q.Atoms))
	for ai, a := range q.Atoms {
		cols[ai] = make([]int, len(a.Args))
		for col, term := range a.Args {
			cols[ai][col] = -1
			if term.IsVar() {
				cols[ai][col] = idx[term.Var]
			}
		}
		newly[ai] = make([]int, 0, len(a.Args))
	}
	assigned := make([]bool, len(vars))
	mu := make([]int64, len(vars))
	seen := make(map[string]bool)
	var out [][]int64
	unbind := func(xs []int) {
		for _, x := range xs {
			assigned[x] = false
		}
	}

	var rec func(ai int)
	rec = func(ai int) {
		if ai == len(q.Atoms) {
			key := relation.Key(mu)
			if !seen[key] {
				seen[key] = true
				out = append(out, append([]int64(nil), mu...))
			}
			return
		}
		args, rel, at := q.Atoms[ai].Args, rels[ai], cols[ai]
	tuples:
		for ti := 0; ti < rel.Len(); ti++ {
			t := rel.Tuple(ti)
			bound := newly[ai][:0]
			for col, x := range at {
				switch {
				case x < 0 && t[col] != args[col].Const, x >= 0 && assigned[x] && mu[x] != t[col]:
					unbind(bound)
					continue tuples
				case x >= 0 && !assigned[x]:
					assigned[x] = true
					mu[x] = t[col]
					bound = append(bound, x)
				}
			}
			rec(ai + 1)
			unbind(bound)
		}
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return relation.CompareTuples(out[i], out[j]) < 0 })
	return out, nil
}

// Count returns |q(D)|. Only tests call it: it is the reference count
// the root package's and the core, genericjoin, leapfrog, pairwise,
// server, td and yannakakis tests hold the engines to.
func Count(q *cq.Query, db *relation.DB) (int64, error) {
	tuples, err := Eval(q, db)
	if err != nil {
		return 0, err
	}
	return int64(len(tuples)), nil
}
