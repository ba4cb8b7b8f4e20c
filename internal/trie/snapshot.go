package trie

import "fmt"

// This file is the serialization boundary of the trie: the level arrays
// are exposed as raw slices (LevelData) so a storage layer can write
// them to disk byte-for-byte and later reconstruct the identical trie
// around mmap'd file contents without copying. The trie itself stays
// storage-agnostic — internal/store owns files, checksums and mmap.

// LevelData is the raw content of one trie level: the node values plus
// the child-range offsets into the next level (Start has len(Vals)+1
// entries; the deepest level's offsets are present but unused, matching
// the in-memory layout exactly). The slices are views, not copies —
// writers must not mutate them, and a trie constructed from them via
// FromLevels aliases them for its lifetime.
type LevelData struct {
	Vals  []int64
	Start []int32
}

// Snapshot exposes the trie's level arrays for serialization. Only
// fully materialized tries snapshot — a patched trie is a transient
// overlay over a base that is itself snapshot-able, so persisting it
// would duplicate the base; callers compact (rebuild) first. A prefix
// view (Under) is refused too: its levels hold its siblings' subtrees.
func (t *Trie) Snapshot() ([]LevelData, error) {
	if t.patch != nil {
		return nil, fmt.Errorf("trie: cannot snapshot a patched trie (snapshot the base and replay the delta instead)")
	}
	if t.arity > 0 && t.root != t.whole() {
		return nil, fmt.Errorf("trie: cannot snapshot a prefix view (snapshot the trie it was taken from)")
	}
	out := make([]LevelData, len(t.levels))
	for d := range t.levels {
		out[d] = LevelData{Vals: t.levels[d].vals, Start: t.levels[d].start}
	}
	return out, nil
}

// FromLevels reconstructs a fully materialized trie around the given
// level arrays — the open-from-disk twin of Build. The slices are
// aliased, not copied, which is what makes an mmap-backed open
// zero-copy: iterators then read the file's pages directly, and every
// such read is charged through the iterator's stats.Counters exactly
// like an access to a built trie. A dense first level gets its
// lower-bound index here, as Build gives it one: the index is derived
// from the values and never stored (see indexRoot).
//
// The arrays are validated structurally before any iterator can touch
// them (lengths, offset monotonicity and bounds, sorted sibling
// ranges), so a snapshot that passed its checksums but carries
// impossible structure is refused instead of panicking mid-join. The
// returned trie has no default counters sink; attach per-run counters
// via NewIteratorCounters, as registry-served tries always do.
func FromLevels(levels []LevelData) (*Trie, error) {
	if err := validateLevels(levels); err != nil {
		return nil, err
	}
	t := &Trie{arity: len(levels), levels: make([]level, len(levels))}
	for d := range levels {
		t.levels[d] = level{vals: levels[d].Vals, start: levels[d].Start}
	}
	indexRoot(t.levels)
	t.root = t.whole()
	return t, nil
}

// validateLevels checks the cascading-vector invariants Build
// establishes: per level, start has len(vals)+1 entries; on every
// non-deepest level start is nondecreasing from 0 to the next level's
// length; and within each sibling range values strictly increase
// (level 0 is one range spanning the whole level). O(total cells), no
// allocation — cheap next to the IO that precedes it.
func validateLevels(levels []LevelData) error {
	if len(levels) == 0 {
		return fmt.Errorf("trie: snapshot has no levels")
	}
	for d, lvl := range levels {
		if len(lvl.Start) != len(lvl.Vals)+1 {
			return fmt.Errorf("trie: level %d has %d offsets for %d values (want %d)",
				d, len(lvl.Start), len(lvl.Vals), len(lvl.Vals)+1)
		}
		if d == len(levels)-1 {
			continue // deepest level's offsets are unused padding
		}
		next := len(levels[d+1].Vals)
		if lvl.Start[0] != 0 {
			return fmt.Errorf("trie: level %d offsets start at %d, want 0", d, lvl.Start[0])
		}
		for i := 1; i < len(lvl.Start); i++ {
			if lvl.Start[i] < lvl.Start[i-1] {
				return fmt.Errorf("trie: level %d offset %d decreases (%d < %d)",
					d, i, lvl.Start[i], lvl.Start[i-1])
			}
		}
		if int(lvl.Start[len(lvl.Start)-1]) != next {
			return fmt.Errorf("trie: level %d offsets end at %d, want next level length %d",
				d, lvl.Start[len(lvl.Start)-1], next)
		}
	}
	// Sibling ranges must be strictly increasing: seeks binary-search
	// within them. Walk each level under its parent's boundaries.
	for d, lvl := range levels {
		isBoundary := func(i int) bool { return false }
		if d > 0 {
			parent := levels[d-1].Start
			pi := 1 // parent[0] == 0 is the first range's start, not a break
			isBoundary = func(i int) bool {
				for pi < len(parent) && int(parent[pi]) < i {
					pi++
				}
				return pi < len(parent) && int(parent[pi]) == i
			}
		}
		for i := 1; i < len(lvl.Vals); i++ {
			if isBoundary(i) {
				continue
			}
			if lvl.Vals[i] <= lvl.Vals[i-1] {
				return fmt.Errorf("trie: level %d values not strictly increasing within a sibling range at %d", d, i)
			}
		}
	}
	return nil
}
