package trie

// This file implements prefix views: a constant in a query atom is a
// bound leading level of the atom's trie, so the atom's index is the
// subtree under that constant — the same level arrays, entered at a
// narrower root range — and not a trie of its own. One resident index
// per (relation, column order) then serves every constant, and a view
// costs one descent instead of a selection scan and a build.

// Under returns the trie of the tuples that start with prefix, with the
// prefix columns dropped: arity k − len(prefix), level d standing for
// the receiver's level len(prefix)+d. The view shares the receiver's
// level arrays (and, for a patched trie, its overlay and dead lists)
// and differs only in the root range iterators enter at depth 0, so it
// iterates, seeks and charges exactly like a trie built from the
// selected and projected relation. found is false, and the view empty,
// when no tuple carries the prefix. len(prefix) must be below the arity:
// a full tuple is a membership test, not a trie.
//
// The descent follows the merge iterator's rule level by level — the
// base side carries a value only through a node that is not dead, the
// overlay side through its own node, each within the range the previous
// value left it — so a constant present only in the overlay, or only in
// the base, or whose base node died, binds to exactly the siblings an
// iterator opened below it would see. It reads no accounted cell: like
// the build it replaces, it charges nothing.
func (t *Trie) Under(prefix []int64) (view *Trie, found bool) {
	n := len(prefix)
	if n >= t.arity {
		panic("trie: Under needs a prefix shorter than the arity")
	}
	view = &Trie{arity: t.arity - n, levels: t.levels[n:], c: t.c}
	base := t.root
	var over span
	p := t.patch
	if p != nil {
		over = p.root
	}
	for d, v := range prefix {
		var b, o span
		if i, ok := t.levels[d].find(base, v); ok && (p == nil || !p.isDead(d, i)) {
			b = t.levels[d].children(i)
		}
		if p != nil {
			if i, ok := p.adds[d].find(over, v); ok {
				o = p.adds[d].children(i)
			}
		}
		base, over = b, o
	}
	view.root = base
	if p != nil {
		view.patch = &patchSet{adds: p.adds[n:], root: over, dead: p.dead[n:]}
	}
	// A live node has a child on its side, so an empty pair of ranges is
	// exactly a prefix no tuple carries.
	return view, base.lo < base.hi || over.lo < over.hi
}
