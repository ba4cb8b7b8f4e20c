package leapfrog

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/trie"
)

// unaryTrie builds an arity-1 trie over the given keys (duplicates
// collapse via set semantics).
func unaryTrie(t testing.TB, keys []int64) *trie.Trie {
	t.Helper()
	tuples := make([][]int64, len(keys))
	for i, k := range keys {
		tuples[i] = []int64{k}
	}
	return trie.Build(relation.MustNew("A", 1, tuples), nil)
}

// frogInit is how a test frog is opened and drained.
type frogInit int

const (
	// viaScalar is the reference: Open, Init, then Key/Next. It never
	// enters trie's leapfrog kernel.
	viaScalar frogInit = iota
	viaOpen            // Runner.OpenDepth's Open and Init in one kernel call, then NextBatch blocks
	viaLeaf            // Runner.OpenLeaf's Open, Init and first block in one kernel call, then NextBatch blocks
)

var kernelInits = []frogInit{viaOpen, viaLeaf}

// scanFrog opens fresh iterators over the tries, accounting into c, and
// scans a frog over them as how says, in blocks of bs, then closes it as
// Runner.CloseDepth does. With parent >= 0 the legs are opened one level
// below key parent of level 0, which every trie must hold; otherwise at
// level 0. It returns the matches and the legs, back at the level they
// were opened from, in the order the frog left them.
func scanFrog(tries []*trie.Trie, c *stats.Counters, parent int64, how frogInit, bs int) ([]int64, []*trie.Iterator) {
	legs := make([]*trie.Iterator, len(tries))
	for i, tr := range tries {
		legs[i] = tr.NewIteratorCounters(c)
		if parent >= 0 {
			legs[i].Open()
			legs[i].SeekGE(parent)
		}
	}
	f := NewFrog(legs)
	var out []int64
	block := make([]int64, bs)
	ok := false
	switch how {
	case viaScalar:
		for _, l := range legs {
			l.Open()
		}
		for ok := f.Init(); ok; ok = f.Next() {
			out = append(out, f.Key())
		}
	case viaOpen:
		ok = f.open()
	case viaLeaf:
		n := f.openLeaf(block)
		out = append(out, block[:n]...)
		ok = !f.AtEnd()
	}
	for ok {
		n := f.NextBatch(block)
		out = append(out, block[:n]...)
		ok = !f.AtEnd()
	}
	f.close()
	return out, legs
}

func flushAll(legs []*trie.Iterator) {
	for _, l := range legs {
		l.Flush()
	}
}

// denseKeys returns 0, step, 2·step, … below n·step: at least 64 of
// them over fewer than 4 codes each give a trie's level 0 its dense
// lower-bound index.
func denseKeys(n, step int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * step
	}
	return keys
}

// TestFrogNextBatchEquivalence pins the block-intersection contract on
// hand-picked leg shapes: identical matches and bit-identical counters
// vs the scalar reference frog, across block sizes and both kernel
// entries, including the single-materialized-leg fast path and the
// patched-leg fallback.
func TestFrogNextBatchEquivalence(t *testing.T) {
	single := unaryTrie(t, []int64{1, 3, 4, 8, 9, 12})
	a := unaryTrie(t, []int64{1, 2, 3, 5, 8, 13, 21})
	b := unaryTrie(t, []int64{2, 3, 5, 7, 11, 13})
	c3 := unaryTrie(t, []int64{3, 5, 13, 99})
	baseRel := relation.MustNew("A", 1, [][]int64{{1}, {3}, {4}, {8}})
	patched, err := trie.BuildPatched(trie.Build(baseRel, nil),
		relation.MustNew("A", 1, [][]int64{{2}, {9}}),
		relation.MustNew("A", 1, [][]int64{{3}}), nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]*trie.Trie{
		"single-materialized": {single},
		"single-patched":      {patched},
		"two-legs":            {a, b},
		"three-legs":          {a, b, c3},
		"four-legs":           {a, b, c3, unaryTrie(t, []int64{0, 5, 13, 50})},
		"patched-leg":         {a, b, patched},
		"dense-roots":         {unaryTrie(t, denseKeys(200, 2)), unaryTrie(t, denseKeys(150, 3))},
		"empty-intersection":  {a, unaryTrie(t, []int64{100, 200})},
		"empty-leg":           {a, unaryTrie(t, nil)},
	}
	for name, tries := range cases {
		var cs stats.Counters
		want, legs := scanFrog(tries, &cs, -1, viaScalar, 0)
		flushAll(legs)

		for _, how := range kernelInits {
			for _, bs := range []int{1, 2, 3, 64, 256} {
				var cb stats.Counters
				got, legs := scanFrog(tries, &cb, -1, how, bs)
				flushAll(legs)
				if !slices.Equal(got, want) {
					t.Fatalf("%s init=%d bs=%d: matches %v, want %v", name, how, bs, got, want)
				}
				if cb != cs {
					t.Errorf("%s init=%d bs=%d: batch counters %+v, scalar %+v", name, how, bs, cb, cs)
				}
			}
		}
	}
}

var frogSink int64

// BenchmarkFrog is the leapfrog rung under core's leaf scan. Leg j of a
// k-leg frog holds the multiples of j+1 below 2^13, and one op drains
// the whole intersection in visits passes. With visits=1 the legs are
// unary and one pass drains one long intersection at the root. With
// visits=1024 the keys are split under 1024 parents, so each pass opens
// the legs under one parent, intersects sibling ranges of 8 keys or
// fewer and closes them again: the triangle leaf's shape, where the
// per-pass overhead costs more than the seeks do.
//
// "next" drains a pass with the scalar reference: Open, Init and the
// per-key Key/Next sequence, then Up. "nextbatch" runs what core's leaf
// runs: Runner.OpenLeaf's fused Open/Init/first-block call, NextBatch
// blocks of core's length, and Runner.CloseDepth. On one leg that is the
// bulk copy; on two or more it is trie's leapfrog kernel throughout. The
// two must charge exactly the same: the benchmark fails if one op's
// accesses differ.
func BenchmarkFrog(b *testing.B) {
	const domain = 1 << 13
	var block [256]int64
	for _, visits := range []int{1, 1024} {
		for arity := 1; arity <= 3; arity++ {
			var c stats.Counters
			legs := make([]*trie.Iterator, arity)
			for j := range legs {
				var tuples [][]int64
				for k := int64(0); k < domain; k += int64(j + 1) {
					if visits == 1 {
						tuples = append(tuples, []int64{k})
					} else {
						tuples = append(tuples, []int64{k / (domain / int64(visits)), k})
					}
				}
				rel := relation.MustNew("A", len(tuples[0]), tuples)
				legs[j] = trie.Build(rel, nil).NewIteratorCounters(&c)
			}
			f := NewFrog(legs)
			openAll := func() {
				for _, l := range legs {
					l.Open()
				}
			}
			upAll := func() {
				for _, l := range legs {
					l.Up()
				}
			}
			// Each pass drains the frog one level below where the legs
			// stand and returns the match count.
			next := func() (n int) {
				openAll()
				for ok := f.Init(); ok; ok = f.Next() {
					frogSink += f.Key()
					n++
				}
				upAll()
				return n
			}
			nextbatch := func() int {
				n := f.openLeaf(block[:])
				for !f.AtEnd() {
					n += f.NextBatch(block[:])
				}
				f.close()
				return n
			}
			// scan is one op: a pass at the root, or one under each parent.
			scan := func(pass func() int) (n int) {
				if visits == 1 {
					return pass()
				}
				openAll()
				for range visits {
					n += pass()
					for _, l := range legs {
						l.Next()
					}
				}
				upAll()
				return n
			}
			once := func(pass func() int) (int, int64) {
				c.Reset()
				n := scan(pass)
				flushAll(legs)
				return n, c.Total()
			}
			want, wantAcc := once(next)
			for _, mode := range []struct {
				name string
				pass func() int
			}{{"next", next}, {"nextbatch", nextbatch}} {
				b.Run(fmt.Sprintf("%s/visits=%d/legs=%d", mode.name, visits, arity), func(b *testing.B) {
					if n, acc := once(mode.pass); n != want || acc != wantAcc {
						b.Fatalf("one op: %d matches, %d accesses; next: %d, %d", n, acc, want, wantAcc)
					}
					c.Reset()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if scan(mode.pass) != want {
							b.Fatal("match count drifted")
						}
					}
					b.StopTimer()
					flushAll(legs)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*want), "ns/key")
					b.ReportMetric(float64(c.Total())/float64(b.N), "accesses/op")
				})
			}
		}
	}
}
