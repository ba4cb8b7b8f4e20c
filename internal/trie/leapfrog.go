package trie

// This file is the trie layer's leapfrog kernel: Veldhuizen's leapfrog
// search, and the block drain of leapfrog.Frog.NextBatch, over two to
// MaxLeapfrogLegs materialized iterators, with the Opens that enter a
// depth folded into the same calls. Each leg's cursor — level, position,
// range end, current key — is copied into a local array once per call
// and written back once at its end, seeks call level.lowerBound directly,
// and the access charges collect in one local counter. In between, no
// Iterator method runs.
//
// The accounting contract is the trie layer's: a kernel call charges
// exactly what the scalar Key/Next/SeekGE sequence of leapfrog.Frog would
// have charged — Init's insertion sort, every search step and every
// advance — so the flushed totals of a join are those of the scalar loop.
// leapfrog.FuzzBlockIntersect and core's differential tests pin it
// against the scalar frog, which the kernel never replaces.

// MaxLeapfrogLegs is the most legs one kernel call takes; an intersection
// of more atoms runs the scalar frog.
const MaxLeapfrogLegs = 8

// frogLeg is one leg's cursor as the kernel holds it.
type frogLeg struct {
	lvl     *level
	pos, hi int32
	cur     int64 // the key at pos, valid while pos < hi
}

// frogLegs is the kernel's working copy of the legs' cursors.
type frogLegs [MaxLeapfrogLegs]frogLeg

// LeapfrogReady reports whether the kernel can run over its: two to
// MaxLeapfrogLegs legs, every one materialized, all accounting into one
// sink — the kernel credits a call's whole charge to one leg, which the
// flushed totals cannot tell apart when the legs share their sink. A
// single leg has nothing to intersect: the scalar frog's search on it is
// two key reads, cheaper than loading a kernel call.
func LeapfrogReady(its []*Iterator) bool {
	if len(its) < 2 || len(its) > MaxLeapfrogLegs {
		return false
	}
	c := its[0].c
	for _, it := range its {
		if it.mg != nil || it.c != c {
			return false
		}
	}
	return true
}

// LeapfrogOpen is Open on every leg followed by leapfrog.Frog.Init, in
// one pass: each leg descends into the child range of its current node
// (its root range at the virtual root), charged as Open charges; unless a
// range is empty, the legs are insertion-sorted by key in place and
// searched for the first match. It returns the index of the leg standing
// on it, and whether there is one. The legs must satisfy LeapfrogReady.
func LeapfrogOpen(its []*Iterator) (p int, ok bool) {
	var ls frogLegs
	pend, empty := ls.open(its)
	if !empty {
		var c int64
		p, ok, c = ls.init(its)
		pend += c
	}
	ls.descend(its, pend)
	return p, ok
}

// LeapfrogLeaf is LeapfrogOpen followed by LeapfrogNextBatch into dst, in
// one pass, for a depth whose matches the caller takes a block at a time.
// It returns the number of matches written, and whether the legs stand
// open on a next match — leg p holding it — for LeapfrogNextBatch to go
// on from. When the intersection ends within dst the legs never leave the
// depth they were at: Open, the drain and the Up that closes the depth
// would together move nothing but the charges, so only the charges are
// written back and there is nothing to Up. The legs must satisfy
// LeapfrogReady.
func LeapfrogLeaf(its []*Iterator, dst []int64) (n, p int, open bool) {
	var ls frogLegs
	pend, empty := ls.open(its)
	if !empty {
		var ok bool
		var c int64
		p, ok, c = ls.init(its)
		pend += c
		if ok {
			n, p, open, c = ls.leap(len(its), p, dst, true)
			pend += c
		}
	}
	if open {
		ls.descend(its, pend)
	} else {
		its[0].pending += pend
	}
	return n, p, open
}

// LeapfrogNextBatch is leapfrog.Frog.NextBatch over legs a kernel call
// left standing on a match, leg p holding it: it fills dst with up to
// len(dst) successive matches, starting with the current one, and
// advances past them. It returns the number written, the leg standing on
// the next match, and whether there is one — false after the drain ran a
// leg off its range. The legs must satisfy LeapfrogReady.
func LeapfrogNextBatch(its []*Iterator, p int, dst []int64) (n, q int, ok bool) {
	var ls frogLegs
	for i, it := range its {
		ls.load(i, it)
	}
	n, q, ok, c := ls.leap(len(its), p, dst, true)
	ls.store(its, c)
	return n, q, ok
}

// LeapfrogUp is Up on every leg, in one call: each ascends one level and
// takes back the key and end state of its parent level, where its cursor
// stood still. Up charges nothing. The legs must be materialized.
func LeapfrogUp(its []*Iterator) {
	for _, it := range its {
		d := it.depth - 1
		it.depth = d
		if d < 0 {
			continue
		}
		if p := it.pos[d]; p < it.hi[d] {
			it.cur, it.end = it.t.levels[d].vals[p], false
		} else {
			it.end = true
		}
	}
}

// open loads into ls the child range each leg's Open would enter, without
// moving the legs, and returns Open's charge and whether a range is empty.
func (ls *frogLegs) open(its []*Iterator) (pend int64, empty bool) {
	for i, it := range its {
		d := it.depth + 1
		if d >= it.t.arity {
			panic("trie: Open below the deepest level")
		}
		r, c := it.t.root, int64(1) // Open's charge: 1, plus 2 to read a node's child offsets
		if d > 0 {
			r, c = it.t.levels[d-1].children(it.pos[d-1]), 3
		}
		pend += c
		l := &ls[i]
		l.lvl, l.pos, l.hi = &it.t.levels[d], r.lo, r.hi
		if r.lo < r.hi {
			l.cur = l.lvl.vals[r.lo]
		} else {
			empty = true
		}
	}
	return pend, empty
}

// descend moves every leg one level down onto the cursor open loaded
// (as advanced since), charging pend.
func (ls *frogLegs) descend(its []*Iterator, pend int64) {
	for i, it := range its {
		d := it.depth + 1
		it.depth = d
		it.hi[d] = ls[i].hi
	}
	ls.store(its, pend)
}

// init is Frog.Init past its AtEnd checks: the insertion sort, then the
// search for the first match.
func (ls *frogLegs) init(its []*Iterator) (p int, ok bool, pend int64) {
	pend = ls.sort(its)
	_, p, ok, c := ls.leap(len(its), 0, nil, false)
	return p, ok, pend + c
}

// load copies iterator it's cursor at its current depth into leg i.
func (ls *frogLegs) load(i int, it *Iterator) {
	d := it.depth
	ls[i] = frogLeg{&it.t.levels[d], it.pos[d], it.hi[d], it.cur}
}

// store writes the legs' cursors back into its — a leg past its range
// end is AtEnd, with the key it last held, as Next and SeekGE leave it —
// and credits the call's charge to the first leg.
func (ls *frogLegs) store(its []*Iterator, pend int64) {
	for i, it := range its {
		l := &ls[i]
		it.pos[it.depth] = l.pos
		if l.pos < l.hi {
			it.cur, it.end = l.cur, false
		} else {
			it.end = true
		}
	}
	its[0].pending += pend
}

// sort orders the legs (and its alongside) by key with Frog.Init's
// insertion sort, returning its charge: two Key reads per comparison.
func (ls *frogLegs) sort(its []*Iterator) (pend int64) {
	for i := 1; i < len(its); i++ {
		for j := i; j > 0; j-- {
			pend += 2
			if ls[j].cur >= ls[j-1].cur {
				break
			}
			ls[j], ls[j-1] = ls[j-1], ls[j]
			its[j], its[j-1] = its[j-1], its[j]
		}
	}
	return pend
}

// leap runs the leapfrog over the first k legs from leg p. Without fill it
// is Frog.search: it advances legs until all stand on one key and returns
// the leg it found the match on. With fill, leg p stands on a match, and
// leap is NextBatch's loop of Key, Next and search: it emits each match
// into dst and steps past it, until dst is full (the legs then stand on
// the next match) or a leg runs off its range (ok false, q that leg). pend
// is the charge of the scalar sequence — one per Key, Next and SeekGE,
// plus each real seek's model cost from lowerBound.
func (ls *frogLegs) leap(k, p int, dst []int64, fill bool) (n, q int, ok bool, pend int64) {
	for {
		if fill {
			if n == len(dst) {
				return n, p, true, pend
			}
			l := &ls[p]
			dst[n] = l.cur
			n++
			pend += 2
			if l.pos++; l.pos >= l.hi {
				return n, p, false, pend
			}
			l.cur = l.lvl.vals[l.pos]
			if p++; p == k {
				p = 0
			}
		}
		prev := p - 1
		if prev < 0 {
			prev = k - 1
		}
		max := ls[prev].cur
		pend++
		for {
			l := &ls[p]
			pend++ // Key
			if l.cur == max {
				break
			}
			pend++ // SeekGE's check of the current key
			if l.cur < max {
				pos, c := l.lvl.lowerBound(l.pos+1, l.hi, max)
				pend += c
				if l.pos = pos; pos >= l.hi {
					return n, p, false, pend
				}
				l.cur = l.lvl.vals[pos]
			}
			max = l.cur
			pend++
			if p++; p == k {
				p = 0
			}
		}
		if !fill {
			return n, p, true, pend
		}
	}
}
