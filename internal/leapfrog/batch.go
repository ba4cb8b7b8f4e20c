package leapfrog

import "repro/internal/trie"

// This file is the block-at-a-time advance of the unary leapfrog join:
// Frog.NextBatch drains up to a block of matches per call, and is how
// core's traversals scan their deepest level. The accounting contract
// carries over from the trie layer — a call charges exactly what the
// equivalent scalar Key/Next/search sequence would have charged — so
// stats totals of completed scans are those of the scalar loop
// (Runner.Count, Fig. 1); FuzzBlockIntersect pins it at this layer and
// core's differential tests over whole joins.

// NextBatch fills dst with up to len(dst) successive matches, starting
// with the current one, and advances past them. It returns the number
// of matches written; after a short return the frog is AtEnd. Like
// Frog.Next, it must only be called while the frog is positioned on a
// match (Init/Next/SeekGE returned true) — except at AtEnd or with an
// empty dst, where it returns 0.
//
// A single materialized leg needs no leapfrog search — every sibling is
// a match — so that case runs the trie's branch-free bulk copy and
// replays the scalar search charges via Charge: each scalar advance
// that keeps the leg live re-reads the key twice (Frog.search on one
// leg), and the final advance that exhausts it reads nothing. Several
// legs whose depth was entered through trie's leapfrog kernel
// (Runner.OpenDepth, Runner.OpenLeaf) drain there, a block per call;
// other frogs fall back to the scalar primitives. Both are
// charge-identical to the scalar loop.
func (f *Frog) NextBatch(dst []int64) int {
	if f.done || len(dst) == 0 {
		return 0
	}
	if legs := f.legs; len(legs) == 1 && legs[0].Materialized() {
		leg := legs[0]
		n := leg.NextBatch(dst)
		extra := 2 * int64(n)
		if leg.AtEnd() {
			extra -= 2
			f.done = true
		}
		leg.Charge(extra)
		return n
	}
	if f.kernel {
		n, p, ok := trie.LeapfrogNextBatch(f.legs, f.p, dst)
		f.at(p, ok)
		return n
	}
	n := 0
	for n < len(dst) {
		dst[n] = f.Key()
		n++
		if !f.Next() {
			break
		}
	}
	return n
}
