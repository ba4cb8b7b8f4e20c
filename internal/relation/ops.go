package relation

import "fmt"

// Permute returns a relation whose tuples are the input's with columns
// reordered so that output column i is input column perm[i]. The result is
// re-sorted and deduplicated (projection below may introduce duplicates;
// permutation alone cannot, but we reuse the builder for uniformity).
func (r *Relation) Permute(perm []int) (*Relation, error) {
	if len(perm) != r.arity {
		return nil, fmt.Errorf("relation %s: permutation length %d, arity %d", r.name, len(perm), r.arity)
	}
	seen := make([]bool, r.arity)
	identity := true
	for j, p := range perm {
		if p < 0 || p >= r.arity || seen[p] {
			return nil, fmt.Errorf("relation %s: invalid permutation %v", r.name, perm)
		}
		seen[p] = true
		if p != j {
			identity = false
		}
	}
	if identity {
		// Relations are immutable, so the no-op permutation is the
		// relation itself — the common case for atoms whose argument
		// order already follows the global variable order.
		return r, nil
	}
	b := NewBuilder(r.name, r.arity)
	row := make([]int64, r.arity)
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		for j, p := range perm {
			row[j] = t[p]
		}
		b.Add(row...)
	}
	return b.Build(), nil
}

// Project returns the relation projected onto the given columns (which may
// repeat or reorder); the result is sorted and deduplicated.
func (r *Relation) Project(cols []int) (*Relation, error) {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			return nil, fmt.Errorf("relation %s: project column %d out of range (arity %d)", r.name, c, r.arity)
		}
	}
	b := NewBuilder(r.name, len(cols))
	row := make([]int64, len(cols))
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		for j, c := range cols {
			row[j] = t[c]
		}
		b.Add(row...)
	}
	return b.Build(), nil
}

// Select returns the tuples satisfying all constant bindings (column ->
// value) and all equality classes (sets of columns required pairwise
// equal). Schema is unchanged.
func (r *Relation) Select(consts map[int]int64, equal [][]int) (*Relation, error) {
	for c := range consts {
		if c < 0 || c >= r.arity {
			return nil, fmt.Errorf("relation %s: select column %d out of range", r.name, c)
		}
	}
	for _, cls := range equal {
		for _, c := range cls {
			if c < 0 || c >= r.arity {
				return nil, fmt.Errorf("relation %s: equality column %d out of range", r.name, c)
			}
		}
	}
	b := NewBuilder(r.name, r.arity)
tuples:
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		for c, v := range consts {
			if t[c] != v {
				continue tuples
			}
		}
		for _, cls := range equal {
			for _, c := range cls[1:] {
				if t[c] != t[cls[0]] {
					continue tuples
				}
			}
		}
		b.Add(t...)
	}
	return b.Build(), nil
}
