package trie

// This file adds a block-at-a-time primitive to the trie iterator: a
// caller-owned []int64 block is filled with successive sibling keys in
// one call. The accounting contract is unchanged — a batch call charges
// exactly what the equivalent scalar Key/Next sequence would have
// charged (the same replay idea seekSide uses via binProbes), so a
// scan's stats totals are those of the scalar loop. The equivalence
// tests and FuzzBatchSeek pin the contract.

// NextBatch copies up to len(dst) sibling keys into dst, starting with
// the current key, and advances the iterator past the copied keys. It
// returns the number of keys copied: 0 when AtEnd (or dst is empty),
// and after a short return the iterator is AtEnd. The accounting charge
// is exactly the scalar sequence Key(); Next() per copied key — two
// accesses each — whether served by the materialized bulk copy or the
// patched merge (which literally runs the scalar operations).
func (it *Iterator) NextBatch(dst []int64) int {
	l := &it.legs[it.depth]
	if l.mg == nil {
		n := 0
		if l.pos < l.hi {
			n = l.bulk(dst)
		}
		it.pending += 2 * int64(n)
		return n
	}
	n := 0
	for n < len(dst) && !l.atEnd() {
		dst[n] = it.Key()
		n++
		it.Next()
	}
	return n
}
