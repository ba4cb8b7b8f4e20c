// Package trie implements the trie indices LFTJ scans: for each atom, a
// trie over the (column-permuted) relation, one level per variable, with
// siblings stored sorted. The representation is the flat "cascading
// vectors" layout the paper uses for YTD and that also serves LFTJ here:
// per level, a values array plus child-range offsets into the next level.
// SeekGE is a galloping (exponential-then-binary) search within the
// sibling range, meeting the amortized-logarithmic requirement for
// worst-case optimality; a next-key seek and any seek on a dense first
// level land without searching (level.lowerBound).
//
// Every cell read — including each search probe — is charged to a
// stats.Counters (the trie's shared sink by default, or a per-iterator
// sink for parallel workers), which is how the repository reproduces the
// paper's memory-traffic numbers (§1, §5). Charges are batched in the
// iterator and flushed at Open/Up boundaries; the flushed totals are
// exact (see Iterator).
package trie

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/stats"
)

// level holds one trie depth: vals are the node values; start[i] is the
// offset of node i's children in the next level (children of node i are
// next.vals[start[i]:start[i+1]]; start has len(vals)+1 entries).
//
// dense, when set, is a direct lower-bound index over the whole level:
// dense[k] is the least position holding a value >= base+k, and the last
// entry is len(vals). Only a first level sorted across its whole length
// gets one, and only when its keys are dense (see indexRoot); it is
// derived data, rebuilt on open and never persisted.
type level struct {
	vals  []int64
	start []int32
	dense []int32
	base  int64
}

// Dense-index rule: level 0 gets a lower-bound table when it holds at
// least denseMinKeys keys spanning fewer than denseSpread codes per key.
// The table then has at most denseSpread slots per key — 16 bytes, twice
// the key's own 8.
const (
	denseMinKeys = 64
	denseSpread  = 4
)

// indexRoot gives a trie's first level its dense lower-bound table when
// the level qualifies. Level 0 is the only level sorted across its whole
// length — deeper levels are sorted within each sibling range only — so
// it is the only one a single table can serve. Dictionary codes make it
// dense: a relation's first column covers most codes between its least
// and greatest.
func indexRoot(levels []level) {
	if len(levels) == 0 {
		return
	}
	l := &levels[0]
	m := len(l.vals)
	if m < denseMinKeys {
		return
	}
	// The unsigned difference is exact for any ordered pair of int64s;
	// the level spans diff+1 codes.
	diff := uint64(l.vals[m-1]) - uint64(l.vals[0])
	if diff >= denseSpread*uint64(m)-1 {
		return
	}
	l.base = l.vals[0]
	l.dense = make([]int32, diff+2)
	k := 0
	for i, v := range l.vals {
		for off := int(uint64(v) - uint64(l.base)); k <= off; k++ {
			l.dense[k] = int32(i)
		}
	}
	l.dense[k] = int32(m)
}

// bytes is the level's resident size: 8 bytes per value, 4 per child
// offset and 4 per dense-index slot.
func (l *level) bytes() int64 {
	return 8*int64(len(l.vals)) + 4*int64(len(l.start)) + 4*int64(len(l.dense))
}

// span is a sibling range [lo, hi) of one level's arrays.
type span struct{ lo, hi int32 }

// below maps a range of levels[0]'s nodes onto the range of their
// descendants n levels down, walking the offset chain.
func (s span) below(levels []level, n int) span {
	for d := 0; d < n; d++ {
		s = span{levels[d].start[s.lo], levels[d].start[s.hi]}
	}
	return s
}

// find locates value v among the siblings r of the level, through the
// same lowerBound every seek uses.
func (l *level) find(r span, v int64) (int32, bool) {
	i, _ := l.lowerBound(r.lo, r.hi, v)
	return i, i < r.hi && l.vals[i] == v
}

// lowerBound returns the least position in the sibling range [pos, hi)
// holding a value >= v (hi if none), and the model charge of landing
// there: binProbes(hi−pos, offset), the probes sort.Search makes. It is
// the one search every seek path runs, and it finds the position in one
// of three ways, none of which moves the charge:
//
//   - A level with a dense index reads it: the level is sorted across
//     its whole length, so the range's lower bound is the level's,
//     clamped into [pos, hi) — one load, no search.
//   - A next-key seek, landing at offset 0 or 1, is resolved by reading
//     vals[pos + (vals[pos] < v)], the index chosen by a mask. sort.Search
//     makes exactly bits.Len(n) probes for such a landing, so the charge
//     needs no replay.
//   - Anything else gallops from offset 2 and replays the charge.
func (l *level) lowerBound(pos, hi int32, v int64) (int32, int64) {
	n := hi - pos
	if l.dense != nil {
		// v below base selects slot 0; past the table, its last slot.
		k := (uint64(v) - uint64(l.base)) &^ uint64(lessMask(v, uint64(l.base)^signBit))
		p := min(max(l.dense[min(k, uint64(len(l.dense)-1))], pos), hi)
		return p, binProbes(n, p-pos)
	}
	vals := l.vals
	if n < 2 {
		// 0 or 1 candidates left: the model cost is n probes either way.
		if n == 1 && vals[pos] < v {
			pos++
		}
		return pos, int64(n)
	}
	if p := pos - int32(lessMask(vals[pos], uint64(v)^signBit)); vals[p] >= v {
		return p, int64(bits.Len32(uint32(n)))
	}
	off, _ := gallop(vals[pos+2:hi], v)
	return pos + 2 + off, binProbes(n, off+2)
}

// children returns the child range of node i.
func (l *level) children(i int32) span { return span{l.start[i], l.start[i+1]} }

// Trie is an immutable trie over a sorted relation. Depth d corresponds to
// relation column d (after any permutation applied by the caller).
//
// A trie is either fully materialized (patch == nil) or a copy-on-write
// patch over a shared base (see BuildPatched): levels then aliases the
// base trie's arrays and patch carries the insert overlay and deleted
// base nodes that iterators merge on the fly.
//
// root is the sibling range Open enters at depth 0: the whole first
// level of a built trie, the children of one node of a deeper trie for
// a prefix view (see Under).
type Trie struct {
	arity  int
	levels []level
	root   span
	c      *stats.Counters
	patch  *patchSet // nil for fully materialized tries
}

// whole is the root range of a trie that is no view: its first level.
func (t *Trie) whole() span { return span{0, int32(len(t.levels[0].vals))} }

// Arity returns the trie depth (number of levels).
func (t *Trie) Arity() int { return t.arity }

// Len returns the number of nodes at depth d under the root range. For
// patched tries it is an estimate (base + overlay − dead): a value
// present in both the base and the overlay under the same prefix counts
// twice. The estimator consumers (order cost and fanout, which only
// core.CostSelect reads) tolerate this; the exact tolerance contract is
// pinned by TestPatchedLenTolerance.
func (t *Trie) Len(d int) int {
	b := t.root.below(t.levels, d)
	n := int(b.hi - b.lo)
	if p := t.patch; p != nil {
		a := p.root.below(p.adds, d)
		n += int(a.hi-a.lo) - p.deadIn(d, b)
	}
	return n
}

// Counters returns the accounting sink (possibly nil).
func (t *Trie) Counters() *stats.Counters { return t.c }

// MemoryBytes estimates the trie's resident size: 8 bytes per value
// cell plus 4 per child offset and 4 per dense-index slot (the first
// level's lower-bound table, see indexRoot). The paper's premise is that
// LFTJ's only significant memory is these indices; the estimate
// quantifies it next to the cache sizes reported by the engines. A
// patched trie reports the bytes it keeps alive — the shared base
// arrays plus its own overlay and dead lists — so a byte budget
// charging both the base and the patch double-counts the shared part,
// erring on the safe side. A
// prefix view owns no arrays: it reports the levels it shares, which
// whoever holds the trie it was taken from already accounts for.
func (t *Trie) MemoryBytes() int64 {
	var b int64
	for d := range t.levels {
		b += t.levels[d].bytes()
	}
	return b + t.PatchBytes()
}

// PatchBytes reports the bytes owned by the patch alone (0 for fully
// materialized tries) — the marginal cost of keeping this version
// resident next to its base.
func (t *Trie) PatchBytes() int64 {
	if t.patch == nil {
		return 0
	}
	var b int64
	for d := range t.patch.adds {
		b += t.patch.adds[d].bytes()
	}
	for d := range t.patch.dead {
		b += 4 * int64(len(t.patch.dead[d]))
	}
	return b
}

// Fanout returns the average number of children per node at depth d
// (|level d+1| / |level d|), used by the order-cost estimator.
func (t *Trie) Fanout(d int) float64 {
	if d+1 >= t.arity || t.Len(d) == 0 {
		return 1
	}
	return float64(t.Len(d+1)) / float64(t.Len(d))
}

// Iterator is a positioned cursor over a trie implementing the LFTJ trie
// iterator interface: Open descends to the first child, Up ascends, and
// Key/Next/Seek/AtEnd operate on the current sibling range (Veldhuizen's
// linear-iterator interface per level).
//
// The iterator starts at the virtual root (depth -1); Open must be called
// before the level-0 operations.
//
// Its state is one leg per depth — the cursor the leapfrog kernel steps
// (see Leapfrog) — and the methods below read and write the leg of the
// current depth in place. A parent's leg does not move while the
// iterator is below it, so Up is a depth decrement. Over a fully
// materialized trie a leg is a branch-lean array walk, the hot path of
// every join engine; over a patched trie (BuildPatched) each leg also
// carries the overlay side of an on-the-fly two-way merge (mergeLeg):
// the base cursor skips dead nodes, the overlay cursor walks the
// inserted tuples, and the leg's key is the lesser of the two. The base
// cursor is kept dead-skipped as an invariant after every positioning
// operation.
//
// Accounting is batched: operations accumulate access charges in the
// iterator (one pending counter, no guarded sink write per probe) and
// flush them at close boundaries — Flush, SetCounters, and the runners'
// Release, which every engine entry point calls when its scan finishes.
// The flushed totals are bit-identical to the historical per-probe-
// accounted binary-search implementation — see seekSide.
type Iterator struct {
	t       *Trie
	c       *stats.Counters // accounting sink (defaults to the trie's)
	pending int64           // batched access charges, flushed at Open/Up
	depth   int
	legs    []leg // the cursor at each depth
}

// leg is an Iterator's cursor at one depth: the level, the position
// within the sibling range [pos, hi), and the key at the position. The
// scalar Iterator methods and the leapfrog kernel step the same legs.
// Over a patched trie pos is the base side's position, mg holds the
// overlay side, and cur is the lesser live side's key.
type leg struct {
	it      *Iterator
	up      *leg // the leg one depth up; nil at depth 0
	lvl     *level
	pos, hi int32
	cur     int64     // the key at the position, valid while !atEnd
	mg      *mergeLeg // nil over a materialized trie
}

// mergeLeg is a patched leg's overlay side and the state of its base
// side's dead-node skip. The merge steps charge the leg's iterator
// directly: they are off the materialized fast path.
type mergeLeg struct {
	lvl     *level // the overlay level
	pos, hi int32
	dead    []int32 // the base level's dead positions, ascending
	// nextDead is the least dead base position at or after the point of
	// the last dead-list search: short of it the base cursor stands on a
	// live node without looking (skipDead).
	nextDead int32
}

// NewIterator returns an iterator at the virtual root, accounting into
// the trie's shared counters.
func (t *Trie) NewIterator() *Iterator { return t.NewIteratorCounters(t.c) }

// NewIteratorCounters returns an iterator at the virtual root that
// accounts into c instead of the trie's shared counters. Parallel engines
// use this so workers over the same immutable trie each increment a
// private Counters (the trie's own sink is not goroutine-safe). c may be
// nil to disable accounting for this cursor.
func (t *Trie) NewIteratorCounters(c *stats.Counters) *Iterator {
	it := &Iterator{t: t, c: c, depth: -1, legs: make([]leg, t.arity)}
	var mg []mergeLeg
	if t.patch != nil {
		mg = make([]mergeLeg, t.arity)
	}
	for d := range it.legs {
		l := &it.legs[d]
		l.it, l.lvl = it, &t.levels[d]
		if d > 0 {
			l.up = &it.legs[d-1]
		}
		if mg != nil {
			l.mg = &mg[d]
			l.mg.lvl, l.mg.dead = &t.patch.adds[d], t.patch.dead[d]
		}
	}
	return it
}

// Depth returns the current depth (-1 at the virtual root).
func (it *Iterator) Depth() int { return it.depth }

// SetCounters rebinds the accounting sink, flushing any batched charges
// into the previous sink first. Pooled runners use it to reuse one
// iterator across executions that account into per-run counters.
func (it *Iterator) SetCounters(c *stats.Counters) {
	it.flush()
	it.c = c
}

// Flush drains the batched access charges into the counters sink,
// making it exact. The leapfrog runners flush every iterator on
// Release; standalone iterator users call Flush before reading their
// counters.
func (it *Iterator) Flush() { it.flush() }

func (it *Iterator) flush() {
	// The pending == 0 guard is load-bearing for pooling: a released
	// runner's iterators have nothing pending, so rebinding them to a
	// new sink must not touch the previous owner's counters (a += 0
	// store would race with the old owner reading its totals).
	if it.pending == 0 {
		return
	}
	if it.c != nil {
		it.c.TrieAccesses += it.pending
	}
	it.pending = 0
}

// Open descends to the first child of the current node. At the virtual
// root it opens the trie's root range. Opening an empty child range is
// legal and leaves the iterator AtEnd at the new depth (possible only at
// the root, of an empty trie or of a view under a prefix no tuple
// carries; interior trie nodes always have at least one child).
func (it *Iterator) Open() {
	d := it.depth + 1
	if d >= it.t.arity {
		panic("trie: Open below the deepest level")
	}
	if l := &it.legs[d]; l.mg != nil {
		l.openMerge()
	} else {
		it.pending += l.open()
	}
	it.depth = d
}

// Up ascends one level, back onto the parent's leg, which did not move
// while the iterator was below it.
func (it *Iterator) Up() {
	if it.depth < 0 {
		panic("trie: Up above the virtual root")
	}
	it.depth--
}

// AtEnd reports whether the iterator moved past the last sibling.
func (it *Iterator) AtEnd() bool { return it.legs[it.depth].atEnd() }

// Key returns the value at the current position. It must not be called
// when AtEnd.
func (it *Iterator) Key() int64 {
	it.pending++
	return it.legs[it.depth].cur
}

// Next advances to the next sibling.
func (it *Iterator) Next() {
	it.pending++
	if l := &it.legs[it.depth]; l.mg != nil {
		l.nextMerge()
	} else {
		l.next()
	}
}

// SeekGE positions the iterator at the least sibling with value >= v,
// or AtEnd if none, without moving backwards; see seekSide for the cost
// and accounting contract.
func (it *Iterator) SeekGE(v int64) {
	if l := &it.legs[it.depth]; !l.atEnd() {
		_, c := l.seekGE(v)
		it.pending += c
	}
}

// atEnd reports whether the leg ran off its sibling range: over a
// patched trie, off both sides of it.
func (l *leg) atEnd() bool {
	return l.pos >= l.hi && (l.mg == nil || l.mg.pos >= l.mg.hi)
}

// open enters the child range of the node the leg above stands on — the
// trie's root range at depth 0 — and returns Open's charge: 1, plus 2 to
// read a node's child offsets. The leg must be materialized (a patched
// leg opens through openMerge); open and next are kept small enough to
// inline into the kernel's loops.
func (l *leg) open() int64 {
	r, c := l.it.t.root, int64(1)
	if up := l.up; up != nil {
		r, c = up.lvl.children(up.pos), 3
	}
	l.pos, l.hi = r.lo, r.hi
	if r.lo < r.hi {
		l.cur = l.lvl.vals[r.lo]
	}
	return c
}

// next advances a live materialized leg one sibling and reports whether
// it still stands on one. It charges nothing of its own: Next's access
// is the caller's.
func (l *leg) next() bool {
	if l.pos++; l.pos >= l.hi {
		return false
	}
	l.cur = l.lvl.vals[l.pos]
	return true
}

// seekGE is SeekGE on a live leg: it reports whether the leg still
// stands on a key, and returns the materialized charge — one access for
// the current-key check, which reads the cached key, and level.lowerBound's
// model cost when the leg must move. The patched merge charges its own.
func (l *leg) seekGE(v int64) (bool, int64) {
	if l.mg != nil {
		return l.seekMerge(v), 0
	}
	if l.cur >= v {
		return true, 1
	}
	p, c := l.lvl.lowerBound(l.pos+1, l.hi, v)
	if l.pos = p; p >= l.hi {
		return false, 1 + c
	}
	l.cur = l.lvl.vals[p]
	return true, 1 + c
}

// bulk copies keys from a materialized leg's position on into dst, up to
// len(dst) of them, and advances past them. It returns how many it
// copied and charges nothing.
func (l *leg) bulk(dst []int64) int {
	n := copy(dst, l.lvl.vals[l.pos:l.hi])
	if l.pos += int32(n); l.pos < l.hi {
		l.cur = l.lvl.vals[l.pos]
	}
	return n
}

// openMerge is the patched open: each side descends under the parent's
// node when it carries the parent's key, and gets an empty range when it
// does not.
func (l *leg) openMerge() {
	m, p := l.mg, l.it.t.patch
	var b, a span
	if up := l.up; up == nil {
		b, a = l.it.t.root, p.root
	} else {
		if up.pos < up.hi && up.lvl.vals[up.pos] == up.cur {
			b = up.lvl.children(up.pos)
			l.it.pending += 2
		}
		if um := up.mg; um.pos < um.hi && um.lvl.vals[um.pos] == up.cur {
			a = um.lvl.children(um.pos)
			l.it.pending += 2
		}
	}
	l.pos, l.hi = b.lo, b.hi
	m.pos, m.hi = a.lo, a.hi
	m.nextDead = b.lo // nothing known under this parent: the first check searches
	l.skipDead()
	l.merge()
	l.it.pending++
}

// nextMerge advances every side standing on the leg's key.
func (l *leg) nextMerge() bool {
	m := l.mg
	if l.pos < l.hi && l.lvl.vals[l.pos] == l.cur {
		l.pos++
		l.skipDead()
	}
	if m.pos < m.hi && m.lvl.vals[m.pos] == l.cur {
		m.pos++
	}
	return l.merge()
}

// seekMerge is the patched SeekGE: both sides advance through seekSide,
// then the merged key refreshes.
func (l *leg) seekMerge(v int64) bool {
	m := l.mg
	l.pos = l.seekSide(l.lvl, l.pos, l.hi, v)
	l.skipDead()
	m.pos = l.seekSide(m.lvl, m.pos, m.hi, v)
	return l.merge()
}

// merge sets a patched leg's key to the lesser of its live sides' keys
// and reports whether either side is live.
func (l *leg) merge() bool {
	m := l.mg
	b, a := l.pos < l.hi, m.pos < m.hi
	switch {
	case b && a:
		l.cur = min(l.lvl.vals[l.pos], m.lvl.vals[m.pos])
	case b:
		l.cur = l.lvl.vals[l.pos]
	case a:
		l.cur = m.lvl.vals[m.pos]
	default:
		return false
	}
	return true
}

// seekSide advances one merge side's cursor within one level's sibling
// range [pos,hi) to the least entry >= v: after checking the current
// position (LFTJ seeks are frequently short), level.lowerBound finds the
// rest — on the patched trie's base side the same dense root index,
// next-key check and gallop the materialized SeekGE runs. A gallop costs
// O(log m) physical probes for a seek of distance m, preserving the
// amortized-log bound; its binary phase and the charge replay select
// with masks (see gallop and replayBinProbes), since a join's seek
// distances are irregular enough that their compares would be coin
// flips for the predictor.
//
// The accounting charge is the model cost, not the physical probe
// count: one access for the current-position check plus the exact probe
// count a binary search over the remaining range performs to land on
// the same position. That count is a pure function of the range size
// and the landing offset (every probe compares against the final
// position), so binProbes replays the index arithmetic without touching
// memory. This keeps stats totals bit-identical across the historical
// binary-search implementation and this one, so the paper's
// memory-traffic numbers stay comparable; the accounting-equivalence
// tests pin the contract. The materialized seekGE charges the same,
// reading its current key from the leg instead of the level.
func (l *leg) seekSide(lvl *level, pos, hi int32, v int64) int32 {
	if pos >= hi {
		return pos
	}
	l.it.pending++
	if lvl.vals[pos] >= v {
		return pos
	}
	p, charge := lvl.lowerBound(pos+1, hi, v)
	l.it.pending += charge
	return p
}

// gallop returns the least offset i in [0, len(vals)) with
// vals[i] >= v (or len(vals) if none), plus the number of cells it
// physically probed. Probe offsets double from the front until one
// lands at or past the target, then a binary search resolves the last
// window, so a landing offset of m costs O(log m) probes regardless of
// the level size — the short seeks LFTJ's inner loop is made of stay
// cheap while the amortized-log worst case is preserved.
//
// The binary phase has no data-dependent branch: each compare becomes a
// mask (lessMask) that selects the step, and its trip count depends on
// the window size only. Go emits no CMOV for a select that feeds the
// next load's address, so the select is arithmetic. The trade: a search
// path the predictor could learn — a fixed seek distance — now waits on
// each load in turn instead of running ahead speculatively.
func gallop(vals []int64, v int64) (int32, int32) {
	n := int32(len(vals))
	probes := int32(0)
	// After the loop, every index < lo holds a value < v and either
	// hi == n or vals[hi] >= v, so the least entry >= v lies in
	// [lo, hi].
	lo, hi := int32(0), n
	// step > 0 guards the doubling against int32 wraparound on levels
	// past 2^30 entries: the loop then stops with lo at the last
	// power-of-two probe and the binary phase covers the tail.
	for step := int32(1); step > 0 && step < n; step <<= 1 {
		probes++
		if vals[step-1] >= v {
			hi = step - 1
			break
		}
		lo = step
	}
	// Binary phase, branch-free: the answer lies in [base, base+w]. Each
	// probe at base+half moves base there when the cell is < v, and w
	// shrinks by the same amount either way, so the trip count is a
	// function of the window alone; the last probe settles which end of
	// [base, base+1] it is.
	if w := int(hi - lo); w > 0 {
		vs := uint64(v) ^ signBit
		base := int(lo)
		for ; w > 1; w -= w >> 1 {
			half := w >> 1
			base += half & lessMask(vals[base+half], vs)
			probes++
		}
		base -= lessMask(vals[base], vs)
		probes++
		lo = int32(base)
	}
	return lo, probes
}

const signBit = 1 << 63

// lessMask returns −1 (all ones) if x < v and 0 otherwise, for vs the
// sign-flipped v: flipping both signs maps int64 order onto uint64
// order, so the borrow of the unsigned subtraction is the comparison,
// exact over the whole int64 range and with no branch for the predictor
// to guess.
func lessMask(x int64, vs uint64) int {
	_, borrow := bits.Sub64(uint64(x)^signBit, vs, 0)
	return -int(borrow)
}

// binProbes returns the number of probes sort.Search performs on n
// elements when the predicate flips at offset r — the charged model
// cost of one seek. Each probe of the lower-bound search compares its
// midpoint against r, so the probe path (and count) is fully determined
// by (n, r): ranges shorter than binProbeTableN — most of LFTJ's seeks —
// read the count from a table, longer ones replay the halvings down to
// the table's range and read the rest there.
//
// For r <= 1 the count is bits.Len(n): the range stays [0, j), and while
// j >= 2 its midpoint j/2 is >= r, so each probe halves j until j = 1;
// one last probe at 0 ends the search. That closed form is what
// level.lowerBound charges a next-key seek, without calling this;
// TestBinProbesNextKey pins it.
func binProbes(n, r int32) int64 {
	if uint32(n) < binProbeTableN {
		// 0 <= r <= n here; the mask only spares the bounds check.
		return int64(binProbeTable[n][r&(binProbeTableN-1)])
	}
	return replayBinProbes(n, r)
}

const binProbeTableN = 64

// binProbeTable[n][r] is the probe count of sort.Search over n elements
// flipping at r, for 0 <= r <= n < 64. Row n follows from the smaller
// rows: the first probe at h = n/2 leaves the h elements left of it
// when r <= h and the n−h−1 right of it otherwise.
var binProbeTable = func() (t [binProbeTableN][binProbeTableN]uint8) {
	for n := 1; n < binProbeTableN; n++ {
		h := n >> 1
		for r := 0; r <= n; r++ {
			if r <= h {
				t[n][r] = 1 + t[h][r]
			} else {
				t[n][r] = 1 + t[n-h-1][r-h-1]
			}
		}
	}
	return t
}()

// replayBinProbes runs sort.Search's index arithmetic for (n, r),
// n >= binProbeTableN, until the range left is shorter than the table,
// then reads the rest of the count there. A range under 2^k is under
// 2^6 after k−6 halvings whichever way each goes, so the trip count is
// a function of n alone, and mask selects stand in for the h < r
// branch: the join's irregular landing offsets cost no mispredictions.
func replayBinProbes(n, r int32) int64 {
	i, j := int32(0), n
	t := bits.Len32(uint32(n)) - bits.Len32(binProbeTableN-1)
	for s := 0; s < t; s++ {
		h := int32(uint32(i+j) >> 1)
		m := (h - r) >> 31 // −1 when h < r: the search goes right of h
		i = (h+1)&m | i&^m
		j = h&^m | j&m
	}
	return int64(t) + int64(binProbeTable[(j-i)&(binProbeTableN-1)][(r-i)&(binProbeTableN-1)])
}

// skipDead restores the base-cursor invariant of a patched leg: the
// position never rests on a node whose every leaf was deleted. Under one
// parent the cursor only moves forward, so the leg remembers the next
// dead position ahead of it and searches the sorted dead list again only
// on reaching that one; a run of adjacent dead nodes is walked in step
// with the list.
func (l *leg) skipDead() {
	m := l.mg
	pos, hi := l.pos, l.hi
	if pos < m.nextDead || pos >= hi {
		return
	}
	dead := m.dead
	i, _ := slices.BinarySearch(dead, pos)
	for i < len(dead) && dead[i] == pos && pos < hi {
		pos++
		i++
		l.it.pending++
	}
	l.pos = pos
	m.nextDead = math.MaxInt32
	if i < len(dead) {
		m.nextDead = dead[i]
	}
}
