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

// patchedTrie builds the trie of tuples (arity columns each) as a
// copy-on-write patch: a base holding every other tuple plus neighbours
// of some that the delta deletes, and an overlay inserting the rest. Legs
// over it merge both sides — a key can stand on both — and skip dead
// nodes inside the key range, at the last level and, through whole
// deleted subtrees, above it.
func patchedTrie(t testing.TB, arity int, tuples [][]int64) *trie.Trie {
	t.Helper()
	rel := relation.MustNew("A", arity, tuples)
	var base, adds, dels [][]int64
	for i := range rel.Len() {
		tup := rel.Tuple(i)
		if i%2 == 0 {
			base = append(base, tup)
		} else {
			adds = append(adds, tup)
		}
		gone := slices.Clone(tup)
		for c := range gone {
			if i%2 == 0 || c == arity-1 {
				gone[c]++
			}
		}
		if i%3 == 0 && !rel.Contains(gone) {
			base, dels = append(base, gone), append(dels, gone)
		}
	}
	pt, err := trie.BuildPatched(trie.Build(relation.MustNew("A", arity, base), nil),
		relation.MustNew("A", arity, adds), relation.MustNew("A", arity, dels), nil)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// frog is what a scan drives: the scalar reference Frog or the kernel's
// trie.Leapfrog.
type frog interface {
	Key() int64
	Next() bool
	SeekGE(v int64) bool
	AtEnd() bool
}

// scanFrog opens fresh iterators over the tries, accounting into c, and
// intersects them one level down: with parent >= 0 the legs first stand
// on key parent of level 0, which every trie must hold, and the frog runs
// at level 1; otherwise at level 0. The frog is the kernel's
// trie.Leapfrog, or with scalar the reference Frog over Iterator calls.
// It opens — with leaf, followed by a first block of bs, as
// Runner.OpenLeaf does — and then takes one step per script byte: Key
// and Next, Key and SeekGE up to 7 past that key, or a block of bs. Blocks
// drain the rest, and the frog closes as Runner.CloseDepth does. The
// scalar frog's block is up to bs Key/Next steps. scanFrog returns the
// keys read and the legs, in the order of tries.
func scanFrog(tries []*trie.Trie, c *stats.Counters, parent int64, scalar, leaf bool, script []byte, bs int) ([]int64, []*trie.Iterator) {
	legs := make([]*trie.Iterator, len(tries))
	levels := make([]int, len(tries))
	for i, tr := range tries {
		legs[i] = tr.NewIteratorCounters(c)
		if parent >= 0 {
			legs[i].Open()
			legs[i].SeekGE(parent)
			levels[i] = 1
		}
	}
	var out []int64
	block := make([]int64, bs)
	var f frog
	lf := trie.NewLeapfrog(legs, levels)
	batch := func() {
		if !scalar {
			n := lf.NextBatch(block)
			out = append(out, block[:n]...)
			return
		}
		for range bs {
			if f.AtEnd() {
				return
			}
			out = append(out, f.Key())
			f.Next()
		}
	}
	switch {
	case scalar:
		for _, l := range legs {
			l.Open()
		}
		sf := NewFrog(slices.Clone(legs))
		f = sf
		if sf.Init() && leaf {
			batch()
		}
	default:
		f = &lf
		if lf.Open() && leaf {
			batch()
		}
	}
	for _, op := range script {
		if f.AtEnd() {
			break
		}
		switch op % 3 {
		case 0:
			out = append(out, f.Key())
			f.Next()
		case 1:
			k := f.Key()
			out = append(out, k)
			f.SeekGE(k + int64(op/3%8))
		case 2:
			batch()
		}
	}
	for !f.AtEnd() {
		batch()
	}
	lf.Close()
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

// TestFrogNextBatchEquivalence pins the kernel frog to the scalar
// reference on hand-picked leg shapes: one to ten legs, materialized,
// patched or mixed, opened with and without a fused first block, drained
// in blocks alone or with Next and SeekGE steps in between. The keys
// read and the flushed counters must be identical.
func TestFrogNextBatchEquivalence(t *testing.T) {
	single := unaryTrie(t, []int64{1, 3, 4, 8, 9, 12})
	a := unaryTrie(t, []int64{1, 2, 3, 5, 8, 13, 21})
	b := unaryTrie(t, []int64{2, 3, 5, 7, 11, 13})
	c3 := unaryTrie(t, []int64{3, 5, 13, 99})
	unary := func(keys []int64) [][]int64 {
		out := make([][]int64, len(keys))
		for i, k := range keys {
			out[i] = []int64{k}
		}
		return out
	}
	patched := patchedTrie(t, 1, unary([]int64{1, 2, 3, 4, 8, 9}))
	pb := patchedTrie(t, 1, unary([]int64{2, 3, 5, 7, 11, 13}))
	// Legs j of the wide cases each miss one residue class mod j+2, so
	// ten legs still share keys; the odd ones are patched in "ten-mixed".
	var wide, mixed []*trie.Trie
	for j := range 10 {
		var keys []int64
		for x := int64(0); x < 300; x++ {
			if x%int64(j+2) != 1 {
				keys = append(keys, x)
			}
		}
		wide = append(wide, unaryTrie(t, keys))
		if j%2 == 1 {
			mixed = append(mixed, patchedTrie(t, 1, unary(keys)))
		} else {
			mixed = append(mixed, wide[j])
		}
	}

	cases := map[string][]*trie.Trie{
		"single-materialized": {single},
		"single-patched":      {patched},
		"two-legs":            {a, b},
		"three-legs":          {a, b, c3},
		"four-legs":           {a, b, c3, unaryTrie(t, []int64{0, 5, 13, 50})},
		"patched-leg":         {a, b, patched},
		"all-patched":         {patched, pb},
		"nine-legs":           wide[:9],
		"ten-mixed":           mixed,
		"dense-roots":         {unaryTrie(t, denseKeys(200, 2)), unaryTrie(t, denseKeys(150, 3))},
		"empty-intersection":  {a, unaryTrie(t, []int64{100, 200})},
		"empty-leg":           {a, unaryTrie(t, nil)},
	}
	for name, tries := range cases {
		for _, script := range [][]byte{nil, {0, 1, 2, 4, 0, 3, 5, 2, 7, 0, 0, 1}} {
			for _, leaf := range []bool{false, true} {
				for _, bs := range []int{1, 2, 3, 64, 256} {
					var cs, cb stats.Counters
					want, legs := scanFrog(tries, &cs, -1, true, leaf, script, bs)
					flushAll(legs)
					got, legs := scanFrog(tries, &cb, -1, false, leaf, script, bs)
					flushAll(legs)
					if !slices.Equal(got, want) {
						t.Fatalf("%s script=%v leaf=%v bs=%d: keys %v, want %v", name, script, leaf, bs, got, want)
					}
					if cb != cs {
						t.Errorf("%s script=%v leaf=%v bs=%d: kernel counters %+v, scalar %+v", name, script, leaf, bs, cb, cs)
					}
				}
			}
		}
	}
}

var frogSink int64

// BenchmarkFrog is the leapfrog rung under core's leaf scan. Leg j of a
// k-leg frog holds the multiples of j%3+1 below 2^13, and one op drains
// the whole intersection in visits passes. With visits=1 the legs are
// unary and one pass drains one long intersection at the root. With
// visits=1024 the keys are split under 1024 parents, so each pass opens
// the legs under one parent, intersects sibling ranges of 8 keys or
// fewer and closes them again: the triangle leaf's shape, where the
// per-pass overhead costs more than the seeks do. Nine legs intersect
// what three do, each search lap visiting three times the legs. With
// patched, every leg's trie is a copy-on-write patch of the same tuples
// (patchedTrie), so every step merges an overlay and skips dead nodes.
//
// "next" drains a pass with the scalar reference: Open, Init and the
// per-key Key/Next sequence, then Up. "nextbatch" runs what core's leaf
// runs: Runner.OpenLeaf's trie.Leapfrog.Open and NextBatch blocks of
// core's length, then Close. The two must charge exactly the same: the
// benchmark fails if one op's accesses differ.
func BenchmarkFrog(b *testing.B) {
	const domain = 1 << 13
	var block [256]int64
	for _, patched := range []bool{false, true} {
		for _, visits := range []int{1, 1024} {
			for _, arity := range []int{1, 2, 3, 9} {
				var c stats.Counters
				legs := make([]*trie.Iterator, arity)
				levels := make([]int, arity)
				for j := range legs {
					var tuples [][]int64
					for k := int64(0); k < domain; k += int64(j%3 + 1) {
						if visits == 1 {
							tuples = append(tuples, []int64{k})
						} else {
							tuples = append(tuples, []int64{k / (domain / int64(visits)), k})
						}
					}
					tr := trie.Build(relation.MustNew("A", len(tuples[0]), tuples), nil)
					if patched {
						tr = patchedTrie(b, len(tuples[0]), tuples)
					}
					legs[j] = tr.NewIteratorCounters(&c)
					levels[j] = len(tuples[0]) - 1
				}
				fl := slices.Clone(legs)
				f := NewFrog(fl)
				lf := trie.NewLeapfrog(legs, levels)
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
				nextbatch := func() (n int) {
					if lf.Open() {
						for !lf.AtEnd() {
							n += lf.NextBatch(block[:])
						}
					}
					lf.Close()
					return n
				}
				// scan is one op: a pass at the root, or one under each parent.
				// It starts from the legs' construction order, so every op
				// charges the same.
				scan := func(pass func() int) (n int) {
					copy(fl, legs)
					lf.Reset()
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
					b.Run(fmt.Sprintf("%s/patched=%v/visits=%d/legs=%d", mode.name, patched, visits, arity), func(b *testing.B) {
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
}
