package relation

import (
	"fmt"
	"sync"
)

// Version is one immutable snapshot of a mutable relation: the full
// relation at this version plus its lineage relative to the last
// compacted base. The invariants Rel = (Base − Dels) ∪ Adds,
// Adds ∩ Base = ∅ and Dels ⊆ Base always hold, which is what lets a
// trie registry derive this version's index from the base version's by
// a copy-on-write patch instead of a full rebuild.
type Version struct {
	// Rel is the relation at this version. Queries compile against it
	// like any other immutable relation.
	Rel *Relation
	// Base is the last compacted snapshot; equal to Rel (and Adds/Dels
	// empty) right after construction or compaction.
	Base *Relation
	// Adds holds the tuples present in Rel but not in Base.
	Adds *Relation
	// Dels holds the tuples present in Base but not in Rel.
	Dels *Relation
	// Num increases by one per applied (non-no-op) delta.
	Num uint64
}

// Patched reports whether this version differs from its base, i.e.
// whether an index over it can be derived by patching the base index.
func (v Version) Patched() bool {
	return v.Adds.Len() > 0 || v.Dels.Len() > 0
}

// DeltaSize is the cumulative distance from the base: |Adds| + |Dels|.
func (v Version) DeltaSize() int { return v.Adds.Len() + v.Dels.Len() }

// DefaultCompactFraction is the patch-vs-rebuild crossover: once the
// cumulative delta exceeds this fraction of the base size, ApplyDelta
// compacts — the new version becomes its own base and downstream index
// caches fall back to one full rebuild. Below it, patched indices win:
// the overlay stays small next to the shared base arrays.
const DefaultCompactFraction = 0.25

// Store is a mutable, versioned relation: an immutable Relation chain
// advanced by ApplyDelta. Readers take a Version (a consistent
// snapshot) and are never affected by later deltas; the Store itself is
// safe for concurrent use.
type Store struct {
	mu          sync.Mutex
	cur         Version
	compactFrac float64
}

// NewStore wraps base as version 0 of a mutable relation.
func NewStore(base *Relation) *Store {
	empty := func() *Relation { return &Relation{name: base.name, arity: base.arity} }
	return &Store{
		cur: Version{
			Rel:  base,
			Base: base,
			Adds: empty(),
			Dels: empty(),
		},
		compactFrac: DefaultCompactFraction,
	}
}

// NewStoreAt wraps base as version num of a mutable relation — the
// restart path: a persistent engine that reloads a relation snapshot
// stamped with its version number resumes the version chain where the
// previous process left it, so clients (and plan caches comparing version
// vectors) never see version numbers regress across a restart.
func NewStoreAt(base *Relation, num uint64) *Store {
	s := NewStore(base)
	s.cur.Num = num
	return s
}

// SetCompactFraction overrides the patch-vs-rebuild crossover (see
// DefaultCompactFraction). f <= 0 compacts on every delta (every
// version is its own base); f >= 1 tolerates overlays as large as the
// base itself.
func (s *Store) SetCompactFraction(f float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactFrac = f
}

// Version returns the current snapshot.
func (s *Store) Version() Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Name returns the relation name.
func (s *Store) Name() string { return s.cur.Rel.Name() }

// ApplyDelta applies deletes then inserts to the current version and
// returns the new snapshot. Tuples deleted but absent, or inserted but
// already present, are ignored (set semantics); a delta with no net
// effect returns the current version unchanged with changed == false,
// preserving the Rel pointer so index caches keep hitting.
//
// A delta of k tuples costs a constant number of O(n + k) linear
// merges (apply, no-op detection, lineage diffs against the base); the
// expensive part of index maintenance — rebuilding tries — is avoided
// downstream: while the cumulative delta stays under the compact
// fraction the new version carries its base lineage, and a registry
// derives the new tries by O(k · depth)-node copy-on-write patches.
// Crossing the fraction compacts the version (new base, empty delta),
// signalling caches to rebuild once. A delta that undoes the pending
// ones returns the base itself (v.Rel == v.Base, the base unchanged),
// which is not a compaction: compare Base pointers to tell the two.
func (s *Store) ApplyDelta(inserts, deletes [][]int64) (v Version, changed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur
	ins, err := New(cur.Rel.name, cur.Rel.arity, inserts)
	if err != nil {
		return cur, false, fmt.Errorf("store %s: inserts: %w", cur.Rel.name, err)
	}
	del, err := New(cur.Rel.name, cur.Rel.arity, deletes)
	if err != nil {
		return cur, false, fmt.Errorf("store %s: deletes: %w", cur.Rel.name, err)
	}

	newRel := cur.Rel.Subtract(del).Union(ins)
	if newRel.Len() == cur.Rel.Len() && cur.Rel.Subtract(newRel).Len() == 0 {
		return cur, false, nil // net no-op: keep the pointer, caches stay warm
	}

	next := Version{
		Rel:  newRel,
		Base: cur.Base,
		Adds: newRel.Subtract(cur.Base),
		Dels: cur.Base.Subtract(newRel),
		Num:  cur.Num + 1,
	}
	switch {
	case next.DeltaSize() == 0:
		// The delta landed back on the base's content: the version is the
		// base itself, pointer included, so every index resident for the
		// base serves it and nothing is rebuilt. Not a compaction — the
		// base did not move.
		next.Rel = cur.Base
	case float64(next.DeltaSize()) > s.compactFrac*float64(cur.Base.Len()):
		empty := &Relation{name: newRel.name, arity: newRel.arity}
		next.Base, next.Adds, next.Dels = newRel, empty, empty
	}
	s.cur = next
	return next, true, nil
}

// Union returns the set union of two relations with the same arity
// (linear merge of the sorted backing arrays). The receiver's name is
// kept. It panics on arity mismatch (a programming error: deltas are
// arity-checked at the boundary).
func (r *Relation) Union(o *Relation) *Relation {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation %s: union with arity %d, want %d", r.name, o.arity, r.arity))
	}
	if o.Len() == 0 {
		return r
	}
	if r.Len() == 0 {
		return o.Rename(r.name)
	}
	k := r.arity
	out := make([]int64, 0, len(r.data)+len(o.data))
	i, j := 0, r.Len()
	oi, on := 0, o.Len()
	for i < j && oi < on {
		switch CompareTuples(r.Tuple(i), o.Tuple(oi)) {
		case -1:
			out = append(out, r.Tuple(i)...)
			i++
		case 1:
			out = append(out, o.Tuple(oi)...)
			oi++
		default:
			out = append(out, r.Tuple(i)...)
			i++
			oi++
		}
	}
	out = append(out, r.data[i*k:]...)
	out = append(out, o.data[oi*k:]...)
	return &Relation{name: r.name, arity: k, data: out}
}

// Subtract returns the tuples of r not present in o (same arity; linear
// merge). The receiver's name is kept.
func (r *Relation) Subtract(o *Relation) *Relation {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation %s: subtract with arity %d, want %d", r.name, o.arity, r.arity))
	}
	if r.Len() == 0 || o.Len() == 0 {
		return r
	}
	k := r.arity
	out := make([]int64, 0, len(r.data))
	i, n := 0, r.Len()
	oi, on := 0, o.Len()
	for i < n && oi < on {
		switch CompareTuples(r.Tuple(i), o.Tuple(oi)) {
		case -1:
			out = append(out, r.Tuple(i)...)
			i++
		case 1:
			oi++
		default:
			i++
			oi++
		}
	}
	out = append(out, r.data[i*k:]...)
	return &Relation{name: r.name, arity: k, data: out}
}
