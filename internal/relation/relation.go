// Package relation implements the integer relations underlying the join
// engines: flat, lexicographically sorted, duplicate-free tuple storage
// with selection and projection, plus the database (a named collection of
// relations) that queries run against.
//
// All attribute values are int64, matching the graph workloads of the paper
// (SNAP edge lists, IMDB id pairs). Tuples are stored in one flat []int64
// with a fixed arity stride, which gives the trie builder (package trie)
// contiguous, cache-friendly input — the Go analogue of the paper's
// "cascading vectors".
package relation

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// Relation is an immutable, sorted, duplicate-free set of integer tuples.
// The zero value is an empty relation of arity 0; use New or a Builder to
// construct useful relations.
type Relation struct {
	name  string
	arity int
	data  []int64 // len(data) == arity * Len()

	// skew memoizes ColumnSkew per column (-1: not computed yet).
	skewMu sync.Mutex
	skew   []float64
}

// New builds a relation from the given tuples. Tuples are copied, sorted
// lexicographically and deduplicated. All tuples must have length arity.
func New(name string, arity int, tuples [][]int64) (*Relation, error) {
	if arity < 0 {
		return nil, fmt.Errorf("relation %s: negative arity %d", name, arity)
	}
	b := NewBuilder(name, arity)
	for i, t := range tuples {
		if len(t) != arity {
			return nil, fmt.Errorf("relation %s: tuple %d has length %d, want %d", name, i, len(t), arity)
		}
		b.Add(t...)
	}
	return b.Build(), nil
}

// FromSorted wraps an already lexicographically sorted, duplicate-free
// flat tuple array as a relation without copying — the open-from-disk
// twin of New, used to alias a verified on-disk snapshot (possibly an
// mmap'd file) as a live relation. len(data) must be a multiple of
// arity; ordering and uniqueness are the caller's contract (the storage
// layer validates them before trusting a file). The caller must not
// mutate data afterwards: relations are immutable.
func FromSorted(name string, arity int, data []int64) (*Relation, error) {
	if arity <= 0 {
		return nil, fmt.Errorf("relation %s: non-positive arity %d", name, arity)
	}
	if len(data)%arity != 0 {
		return nil, fmt.Errorf("relation %s: %d values is not a whole number of arity-%d tuples", name, len(data), arity)
	}
	return &Relation{name: name, arity: arity, data: data}, nil
}

// MustNew is New but panics on error; intended for tests and examples.
func MustNew(name string, arity int, tuples [][]int64) *Relation {
	r, err := New(name, arity, tuples)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.arity == 0 {
		if len(r.data) > 0 {
			return 1 // the empty tuple, present once
		}
		return 0
	}
	return len(r.data) / r.arity
}

// Tuple returns the i-th tuple as a read-only slice view into the backing
// array. Callers must not modify it.
func (r *Relation) Tuple(i int) []int64 {
	return r.data[i*r.arity : (i+1)*r.arity]
}

// Data exposes the flat backing array (read-only) for the trie builder.
func (r *Relation) Data() []int64 { return r.data }

// Tuples materializes all tuples as a fresh [][]int64. Intended for tests
// and small relations.
func (r *Relation) Tuples() [][]int64 {
	out := make([][]int64, r.Len())
	for i := range out {
		t := make([]int64, r.arity)
		copy(t, r.Tuple(i))
		out[i] = t
	}
	return out
}

// ColumnSkew returns the skew coefficient (stats.SkewCoefficient) of the
// value frequencies in column col. The relation is immutable, so the
// number is a property of it: each column is scanned at most once, and
// concurrent callers wait for that scan instead of repeating it.
func (r *Relation) ColumnSkew(col int) float64 {
	r.skewMu.Lock()
	defer r.skewMu.Unlock()
	if r.skew == nil {
		r.skew = make([]float64, r.arity)
		for i := range r.skew {
			r.skew[i] = -1
		}
	}
	if r.skew[col] < 0 {
		counts := make(map[int64]int)
		for i := col; i < len(r.data); i += r.arity {
			counts[r.data[i]]++
		}
		freqs := make([]int, 0, len(counts))
		for _, n := range counts {
			freqs = append(freqs, n)
		}
		r.skew[col] = stats.SkewCoefficient(freqs)
	}
	return r.skew[col]
}

// Contains reports whether the relation contains the given tuple, using
// binary search.
func (r *Relation) Contains(t []int64) bool {
	if len(t) != r.arity {
		return false
	}
	n := r.Len()
	i := sort.Search(n, func(i int) bool {
		return CompareTuples(r.Tuple(i), t) >= 0
	})
	return i < n && CompareTuples(r.Tuple(i), t) == 0
}

// Rename returns a relation with the same tuples under a new name. The
// backing data is shared (relations are immutable).
func (r *Relation) Rename(name string) *Relation {
	return &Relation{name: name, arity: r.arity, data: r.data}
}

// CompareTuples compares two equal-length tuples lexicographically,
// returning -1, 0 or 1.
func CompareTuples(a, b []int64) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Builder accumulates tuples and produces a sorted, deduplicated Relation.
type Builder struct {
	name  string
	arity int
	data  []int64
	added int
}

// NewBuilder returns a Builder for relations with the given name and arity.
func NewBuilder(name string, arity int) *Builder {
	return &Builder{name: name, arity: arity}
}

// Add appends one tuple. It panics if the number of values differs from the
// builder's arity (a programming error, not a data error).
func (b *Builder) Add(vals ...int64) {
	if len(vals) != b.arity {
		panic(fmt.Sprintf("relation %s: Add got %d values, want %d", b.name, len(vals), b.arity))
	}
	b.data = append(b.data, vals...)
	b.added++
}

// Len returns the number of tuples added so far (before deduplication).
func (b *Builder) Len() int { return b.added }

// Build sorts, deduplicates and returns the relation. The builder must not
// be reused afterwards.
func (b *Builder) Build() *Relation {
	if b.arity == 0 {
		// A 0-ary relation is either empty or holds the single empty tuple.
		r := &Relation{name: b.name, arity: 0}
		if b.added > 0 {
			r.data = []int64{1} // sentinel marking "non-empty"
		}
		return r
	}
	n := len(b.data) / b.arity
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	k := b.arity
	sort.Slice(idx, func(x, y int) bool {
		return CompareTuples(b.data[idx[x]*k:idx[x]*k+k], b.data[idx[y]*k:idx[y]*k+k]) < 0
	})
	out := make([]int64, 0, len(b.data))
	for j, i := range idx {
		t := b.data[i*k : i*k+k]
		if j > 0 {
			prev := out[len(out)-k:]
			if CompareTuples(prev, t) == 0 {
				continue
			}
		}
		out = append(out, t...)
	}
	return &Relation{name: b.name, arity: b.arity, data: out}
}
