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
	assigned := make([]bool, len(vars))
	mu := make([]int64, len(vars))
	seen := make(map[string]bool)
	var out [][]int64

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
		atom := q.Atoms[ai]
		rel := rels[ai]
	tuples:
		for ti := 0; ti < rel.Len(); ti++ {
			t := rel.Tuple(ti)
			var newly []int
			for col, term := range atom.Args {
				if !term.IsVar() {
					if t[col] != term.Const {
						for _, x := range newly {
							assigned[x] = false
						}
						continue tuples
					}
					continue
				}
				x := idx[term.Var]
				if assigned[x] {
					if mu[x] != t[col] {
						for _, y := range newly {
							assigned[y] = false
						}
						continue tuples
					}
					continue
				}
				assigned[x] = true
				mu[x] = t[col]
				newly = append(newly, x)
			}
			rec(ai + 1)
			for _, x := range newly {
				assigned[x] = false
			}
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
