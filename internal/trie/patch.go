package trie

import (
	"fmt"
	"slices"

	"repro/internal/relation"
	"repro/internal/stats"
)

// This file implements copy-on-write trie patches: deriving the index
// of a relation version from the resident index of its base version in
// O(k · depth) new nodes for a delta of k tuples, instead of an O(n)
// full rebuild. A patched trie shares the base trie's level arrays
// untouched (zero copies) and carries a patch set: a small overlay trie
// over the inserted tuples plus, per level, the sorted list of base
// nodes whose every leaf was deleted. Iterators merge the two sides on
// the fly, so every engine — sequential, parallel, CLFTJ — runs
// unchanged over a patched index; it just pays a per-step merge branch,
// which is the patch-vs-rebuild crossover the E13 ablation measures.

// patchSet is the copy-on-write delta attached to a patched Trie.
type patchSet struct {
	// adds holds the overlay trie levels over the inserted tuples, in
	// the same cascading-vector layout as Trie.levels; root is the
	// overlay's counterpart of Trie.root.
	adds []level
	root span
	// dead[d] lists, ascending, the base nodes at depth d with no
	// surviving leaf: every tuple below them was deleted. Iterators skip
	// them. Every node on a fully deleted path is listed, the
	// unreachable descendants of a dead node included, so that
	// subtracting the entries inside a range from its width counts the
	// live nodes (Len).
	dead [][]int32
}

// isDead reports whether base node i at depth d is dead.
func (p *patchSet) isDead(d int, i int32) bool {
	_, gone := slices.BinarySearch(p.dead[d], i)
	return gone
}

// deadIn counts the dead base nodes at depth d inside r.
func (p *patchSet) deadIn(d int, r span) int {
	lo, _ := slices.BinarySearch(p.dead[d], r.lo)
	hi, _ := slices.BinarySearch(p.dead[d], r.hi)
	return hi - lo
}

// Patched reports whether this trie is a copy-on-write patch over a
// shared base rather than a fully materialized index.
func (t *Trie) Patched() bool { return t.patch != nil }

// BuildPatched derives the trie of a new relation version from the base
// version's trie plus the version delta: adds (tuples present now but
// not in the base) and dels (tuples present in the base but deleted),
// both already permuted into the trie's column order. The base levels
// are shared, not copied; the patch materializes only the overlay trie
// over adds — O(|adds| · depth) nodes — and the dead-node lists for dels
// — at most |dels| · depth entries. Every deleted tuple must exist in
// the base (the relation.Store lineage guarantees it); a missing tuple
// is reported as an error. Patches do not stack: base must be a plain
// trie (registries only patch against fully materialized bases).
func BuildPatched(base *Trie, adds, dels *relation.Relation, counters *stats.Counters) (*Trie, error) {
	if base.patch != nil {
		return nil, fmt.Errorf("trie: cannot patch a patched trie")
	}
	if adds.Arity() != base.arity || dels.Arity() != base.arity {
		return nil, fmt.Errorf("trie: patch arity %d/%d, base %d", adds.Arity(), dels.Arity(), base.arity)
	}
	if counters != nil {
		counters.TriePatches++
	}
	k := base.arity

	// Overlay trie over the inserted tuples (Build groups the sorted
	// relation level by level; adds is small, so this is the O(k·depth)
	// node-copy cost the patch pays instead of a rebuild).
	over := Build(adds, nil)
	p := &patchSet{adds: over.levels, root: over.root, dead: make([][]int32, k)}

	// Locate every deleted tuple's path in the base and count deleted
	// leaves per node; a node whose deleted-leaf count equals its leaf
	// span is dead.
	counts := make([]map[int32]int32, k)
	for d := range counts {
		counts[d] = make(map[int32]int32)
	}
	for ti := 0; ti < dels.Len(); ti++ {
		tup := dels.Tuple(ti)
		siblings := base.root
		for d := 0; d < k; d++ {
			lvl := &base.levels[d]
			idx, ok := lvl.find(siblings, tup[d])
			if !ok {
				return nil, fmt.Errorf("trie: deleted tuple %v not present in base", tup)
			}
			counts[d][idx]++
			if d+1 < k {
				siblings = lvl.children(idx)
			}
		}
	}
	for d := 0; d < k; d++ {
		for idx, cnt := range counts[d] {
			if int(cnt) == base.leafSpan(d, idx) {
				p.dead[d] = append(p.dead[d], idx)
			}
		}
		slices.Sort(p.dead[d])
	}

	return &Trie{arity: k, levels: base.levels, root: base.root, patch: p}, nil
}

// leafSpan returns the number of leaves (tuples) under node idx at
// depth d, by following the child-offset chain to the deepest level.
func (t *Trie) leafSpan(d int, idx int32) int {
	leaves := span{idx, idx + 1}.below(t.levels[d:], t.arity-1-d)
	return int(leaves.hi - leaves.lo)
}
