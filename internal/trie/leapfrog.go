package trie

// This file is the trie layer's leapfrog kernel: Veldhuizen's unary
// leapfrog join over the legs of several iterators at one variable, with
// the Opens that enter the depth folded into the first search and the
// search folded into the block drain. It steps the iterators' own legs
// in place — no cursor is copied in or out — seeks through
// level.lowerBound (or a patched leg's merge), and adds a call's charges
// up in one local counter.
//
// The accounting contract is the trie layer's: every step charges
// exactly what the scalar Key/Next/SeekGE sequence of leapfrog.Frog
// would have charged — Init's insertion sort, every search step and
// every advance — so the flushed totals of a join are those of the
// scalar loop. leapfrog.FuzzBlockIntersect and core's differential tests
// pin it against the scalar frog, which stays the reference.

// Leapfrog is the k-way sorted intersection of a set of trie iterators'
// sibling ranges at one variable: the frog every join executor drives.
// Its legs are fixed at construction — each iterator's leg at the level
// the variable binds in that atom's trie — and its steps work on them
// in place, so the iterators are where the frog left them between calls
// and after Close.
//
// The legs must account into one sink: a call credits its whole charge
// to one of them, which the flushed totals cannot tell apart.
type Leapfrog struct {
	legs    []*leg // in the order Open's insertion sort leaves them
	order   []*leg // the construction order, which Reset restores
	pending *int64 // where a call's charge goes
	p       int    // the leg standing on the current match
	done    bool
}

// NewLeapfrog returns the frog over its[i]'s leg at level levels[i], for
// each i. There must be at least one leg.
func NewLeapfrog(its []*Iterator, levels []int) Leapfrog {
	ls := make([]*leg, 2*len(its))
	for i, it := range its {
		ls[i] = &it.legs[levels[i]]
	}
	f := Leapfrog{legs: ls[len(its):], order: ls[:len(its)], pending: &its[0].pending}
	f.Reset()
	return f
}

// Reset restores the construction order of the legs, which Open's sort
// permutes: a frog reused for a new run then charges exactly what a
// fresh one would.
func (f *Leapfrog) Reset() { copy(f.legs, f.order) }

// Open is Open on every leg followed by the scalar frog's Init: each leg
// descends into the child range under its parent's node (its root range
// at level 0), charged as Open charges; unless a range is empty, the legs
// are insertion-sorted by key and searched for the first match. It
// reports whether there is one.
func (f *Leapfrog) Open() bool {
	var pend int64
	empty := false
	for _, l := range f.legs {
		l.it.depth++
		if l.mg != nil {
			l.openMerge()
		} else {
			pend += l.open()
		}
		empty = empty || l.atEnd()
	}
	ok := !empty
	if ok {
		legs := f.legs
		for i := 1; i < len(legs); i++ {
			for j := i; j > 0; j-- {
				pend += 2 // Init's two Key reads per comparison
				if legs[j].cur >= legs[j-1].cur {
					break
				}
				legs[j], legs[j-1] = legs[j-1], legs[j]
			}
		}
		var c int64
		_, f.p, ok, c = leap(legs, 0, nil, false)
		pend += c
	}
	f.done = !ok
	*f.pending += pend
	return ok
}

// Key returns the current match. Valid only while !AtEnd.
func (f *Leapfrog) Key() int64 {
	*f.pending++
	return f.legs[f.p].cur
}

// Next advances to the next match, returning whether one exists. It is
// NextBatch of one match, less the Key read NextBatch charges for it,
// which the caller paid when it read the match.
func (f *Leapfrog) Next() bool {
	var one [1]int64
	if f.NextBatch(one[:]) == 1 {
		*f.pending--
	}
	return !f.done
}

// SeekGE advances to the first match with key >= v, returning whether
// one exists.
func (f *Leapfrog) SeekGE(v int64) bool {
	live, pend := f.legs[f.p].seekGE(v)
	if live {
		p := f.p + 1
		if p == len(f.legs) {
			p = 0
		}
		var c int64
		_, f.p, live, c = leap(f.legs, p, nil, false)
		pend += c
	}
	f.done = !live
	*f.pending += pend
	return live
}

// NextBatch fills dst with up to len(dst) successive matches, starting
// with the current one, and advances past them. It returns the number
// written; after a short return the frog is AtEnd. At AtEnd or with an
// empty dst it returns 0.
//
// A single materialized leg needs no search — every sibling is a match
// — so its drain is one bulk copy, charged as the scalar frog's loop:
// four accesses per match (Key, Next, and the search's two Key reads on
// one leg), and two at the match whose advance ran the leg off its range.
func (f *Leapfrog) NextBatch(dst []int64) int {
	if f.done || len(dst) == 0 {
		return 0
	}
	if l := f.legs[0]; len(f.legs) == 1 && l.mg == nil {
		n := l.bulk(dst)
		pend := 4 * int64(n)
		if f.done = l.pos >= l.hi; f.done {
			pend -= 2
		}
		*f.pending += pend
		return n
	}
	n, p, ok, pend := leap(f.legs, f.p, dst, true)
	f.p, f.done = p, !ok
	*f.pending += pend
	return n
}

// AtEnd reports whether the frog ran off the end.
func (f *Leapfrog) AtEnd() bool { return f.done }

// Close is Up on every leg: each ascends back onto its parent's leg,
// which did not move. Up charges nothing.
func (f *Leapfrog) Close() {
	for _, l := range f.legs {
		l.it.depth--
	}
}

// leap runs the leapfrog over legs from leg p. Without fill it is
// Frog.search: it advances legs until all stand on one key and returns
// the leg it found the match on. With fill, leg p stands on a match, and
// leap is NextBatch's loop of Key, Next and search: it emits each match
// into dst and steps past it, until dst is full (the legs then stand on
// the next match) or a leg runs off its range (ok false, q that leg). pend
// is the charge of the scalar sequence — one per Key, Next and SeekGE,
// plus each real seek's model cost from lowerBound. The materialized seek
// is leg.seekGE written out in the loop, where the call would cost more
// than the step.
func leap(legs []*leg, p int, dst []int64, fill bool) (n, q int, ok bool, pend int64) {
	k := len(legs)
	for {
		if fill {
			if n == len(dst) {
				return n, p, true, pend
			}
			l := legs[p]
			dst[n] = l.cur
			n++
			pend += 2
			var live bool
			if l.mg == nil {
				live = l.next()
			} else {
				live = l.nextMerge()
			}
			if !live {
				return n, p, false, pend
			}
			if p++; p == k {
				p = 0
			}
		}
		prev := p - 1
		if prev < 0 {
			prev = k - 1
		}
		max := legs[prev].cur
		pend++
		for {
			l := legs[p]
			pend++ // Key
			if l.cur == max {
				break
			}
			if l.mg != nil {
				if !l.seekMerge(max) {
					return n, p, false, pend
				}
			} else if pend++; l.cur < max { // SeekGE's check of the current key
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
