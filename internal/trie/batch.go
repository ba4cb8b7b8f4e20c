package trie

// This file adds block-at-a-time primitives to the trie iterator: a
// caller-owned []int64 block is filled with successive sibling keys in
// one call, which is how core's traversals scan their deepest level
// (through leapfrog.Frog.NextBatch). The accounting contract is
// unchanged — a batch call charges exactly what the equivalent scalar
// Key/Next sequence would have charged (the same replay idea seekLevel
// uses via binProbes), so a join's stats totals are those of the scalar
// loop. The equivalence tests and FuzzBatchSeek pin the contract.

// Materialized reports whether the iterator runs the fully materialized
// fast path (no patched-merge overlay). Batch consumers use it to
// select branch-free bulk loops; patched cursors take the scalar-merge
// fallback instead.
func (it *Iterator) Materialized() bool { return it.mg == nil }

// Charge adds n model-cost accesses to the iterator's batched
// accounting. Fused fast paths use it to replay the charges of the
// scalar operation sequence they replace (exactly as SeekGE replays a
// binary search's probe count via binProbes), keeping flushed totals
// bit-identical to the scalar execution. n must reflect a real scalar
// cost model; the equivalence tests compare both paths.
func (it *Iterator) Charge(n int64) { it.pending += n }

// NextBatch copies up to len(dst) sibling keys into dst, starting with
// the current key, and advances the iterator past the copied keys. It
// returns the number of keys copied: 0 when AtEnd (or dst is empty),
// and after a short return the iterator is AtEnd. The accounting charge
// is exactly the scalar sequence Key(); Next() per copied key — two
// accesses each — whether served by the materialized bulk copy or the
// patched-merge fallback (which literally runs the scalar operations).
func (it *Iterator) NextBatch(dst []int64) int {
	if it.end || len(dst) == 0 {
		return 0
	}
	if it.mg == nil {
		d := it.depth
		pos, hi := it.pos[d], it.hi[d]
		vals := it.t.levels[d].vals
		n := int(hi - pos)
		if n > len(dst) {
			n = len(dst)
		}
		copy(dst[:n], vals[pos:pos+int32(n)])
		pos += int32(n)
		it.pos[d] = pos
		if pos < hi {
			it.cur = vals[pos]
		} else {
			it.end = true
		}
		it.pending += 2 * int64(n)
		return n
	}
	n := 0
	for n < len(dst) && !it.end {
		dst[n] = it.Key()
		n++
		it.Next()
	}
	return n
}
