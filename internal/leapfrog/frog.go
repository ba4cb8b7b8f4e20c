package leapfrog

import (
	"repro/internal/trie"
)

// Frog is the unary leapfrog join: a k-way sorted intersection of the
// sibling ranges that a set of trie iterators are currently positioned at
// (Veldhuizen §3). All legs must be at the same conceptual variable.
//
// Frog is the scalar reference: Init, Next and SeekGE are the per-key
// Key/Next/SeekGE sequence of Iterator calls, which Runner.Count and
// Runner.Eval run and every charge test compares against. The executors
// run trie.Leapfrog instead (Runner.OpenDepth, Runner.OpenLeaf), the
// kernel that steps the same iterators' legs in place and charges what
// this sequence charges.
//
// A Frog is allocation-free after construction: Init re-sorts the legs
// in place with an insertion sort (the legs are the handful of atoms
// constraining one variable), so a runner re-entering a variable on
// every join-tree node visit pays no per-visit allocation. The
// insertion sort performs exactly the comparison sequence
// sort.SliceStable runs on fewer than 20 elements, so the Key-read
// accounting it charges is bit-identical to the historical
// implementation.
type Frog struct {
	legs []*trie.Iterator
	p    int
	done bool
}

// NewFrog wraps the given legs. The slice is retained and its order may
// be permuted.
func NewFrog(legs []*trie.Iterator) *Frog { return &Frog{legs: legs} }

// Init must be called after all legs were Open'ed at the variable's
// level. It positions the frog at the first match and returns whether one
// exists.
func (f *Frog) Init() bool {
	legs := f.legs
	for _, l := range legs {
		if l.AtEnd() {
			f.done = true
			return false
		}
	}
	for i := 1; i < len(legs); i++ {
		for j := i; j > 0 && legs[j].Key() < legs[j-1].Key(); j-- {
			legs[j], legs[j-1] = legs[j-1], legs[j]
		}
	}
	f.p = 0
	f.done = false
	return f.search()
}

// search advances legs until all point at a common key (leapfrog-search).
func (f *Frog) search() bool {
	legs := f.legs
	k := len(legs)
	prev := f.p - 1
	if prev < 0 {
		prev = k - 1
	}
	p := f.p
	max := legs[prev].Key()
	for {
		x := legs[p].Key()
		if x == max {
			f.p = p
			return true
		}
		legs[p].SeekGE(max)
		if legs[p].AtEnd() {
			f.p = p
			f.done = true
			return false
		}
		max = legs[p].Key()
		p++
		if p == k {
			p = 0
		}
	}
}

// Key returns the current match. Valid only after Init/Next/Seek returned
// true.
func (f *Frog) Key() int64 { return f.legs[f.p].Key() }

// Next advances to the next match, returning whether one exists.
func (f *Frog) Next() bool {
	f.legs[f.p].Next()
	if f.legs[f.p].AtEnd() {
		f.done = true
		return false
	}
	f.p++
	if f.p == len(f.legs) {
		f.p = 0
	}
	return f.search()
}

// Seek advances to the first match with key >= v, returning whether one
// exists.
func (f *Frog) SeekGE(v int64) bool {
	f.legs[f.p].SeekGE(v)
	if f.legs[f.p].AtEnd() {
		f.done = true
		return false
	}
	f.p++
	if f.p == len(f.legs) {
		f.p = 0
	}
	return f.search()
}

// AtEnd reports whether the frog ran off the end.
func (f *Frog) AtEnd() bool { return f.done }
