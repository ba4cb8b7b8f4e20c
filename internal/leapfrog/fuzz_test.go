package leapfrog

import (
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/trie"
)

// The leg shapes FuzzBlockIntersect decodes its byte streams into.
const (
	// shapeUnary: unary keys over a small domain, so legs overlap and
	// duplicate-heavy inputs are common.
	shapeUnary = iota
	// shapeDense: unary legs holding [0, 128) with every fuzzed byte's
	// key toggled, so level 0 usually has the 64 dense keys its
	// lower-bound index needs and seeks read the index.
	shapeDense
	// shapeBelow: arity-2 legs opened under one parent key, so the
	// kernel seeks inside sibling ranges below the root, as a join's
	// deeper depths do.
	shapeBelow
	numShapes
)

// fuzzTuples decodes one leg's byte stream into tuples of the shape.
// Under shapeBelow, every leg also gets the tuple (parent, child) so that
// all legs can be opened under parent.
func fuzzTuples(data []byte, shape int, parent, child int64) [][]int64 {
	var out [][]int64
	switch shape {
	case shapeUnary:
		for _, b := range data {
			out = append(out, []int64{int64(b % 24)})
		}
	case shapeDense:
		var in [256]bool
		for v := range 128 {
			in[v] = true
		}
		for _, b := range data {
			in[b] = !in[b]
		}
		for v, ok := range in {
			if ok {
				out = append(out, []int64{int64(v)})
			}
		}
	case shapeBelow:
		out = append(out, []int64{parent, child})
		for _, b := range data {
			out = append(out, []int64{int64(b >> 6), int64(b & 63)})
		}
	}
	return out
}

// FuzzBlockIntersect drives the frog's kernel entries — Init, the fused
// Open and Init of Runner.OpenDepth, the fused Open, Init and first block
// of Runner.OpenLeaf, and NextBatch — against the scalar reference frog, which
// never enters trie's leapfrog kernel, on fuzzer-chosen relations: a
// k-way intersection over 1..4 legs of each shape (small unary domains,
// dense roots, sibling ranges under a fuzzer-chosen parent), optionally
// with a patched leg. Matches and flushed counters must be identical at
// every block size, and the legs must come back up to where they were
// opened.
func FuzzBlockIntersect(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, uint8(1), uint8(shapeUnary), uint8(0))                                     // empty legs
	f.Add([]byte{5}, []byte{5}, []byte{}, []byte{}, uint8(1), uint8(shapeUnary), uint8(0))                                   // single-key legs
	f.Add([]byte{1, 1, 1, 2, 2, 1, 2}, []byte{1, 2, 1, 1}, []byte{2, 2, 2}, []byte{}, uint8(6), uint8(shapeUnary), uint8(0)) // duplicate-heavy, patched
	f.Add([]byte{0, 2, 4, 6, 8, 10}, []byte{1, 2, 3, 4, 5, 6}, []byte{2, 4, 8}, []byte{4}, uint8(3), uint8(shapeUnary), uint8(0))
	f.Add([]byte{3, 9, 200, 17}, []byte{5, 130, 131, 250}, []byte{1, 2, 3}, []byte{}, uint8(2), uint8(shapeDense), uint8(0))
	f.Add([]byte{65, 70, 80, 90, 100, 127}, []byte{66, 70, 90, 91, 127}, []byte{70, 90, 127}, []byte{90}, uint8(3), uint8(shapeBelow), uint8(1))
	f.Add([]byte{10, 20, 30, 40, 50, 60}, []byte{20, 40, 60, 63}, []byte{}, []byte{}, uint8(5), uint8(shapeBelow), uint8(20))

	f.Fuzz(func(t *testing.T, aB, bB, cB, dB []byte, kRaw, shapeRaw, parentRaw uint8) {
		k := int(kRaw%4) + 1
		shape := int(shapeRaw % numShapes)
		parent := int64(-1)
		if shape == shapeBelow {
			parent = int64(parentRaw % 4)
		}
		arity := 1
		if shape == shapeBelow {
			arity = 2
		}
		tries := make([]*trie.Trie, k)
		for i, data := range [][]byte{aB, bB, cB, dB}[:k] {
			rel := relation.MustNew("A", arity, fuzzTuples(data, shape, parent, int64(parentRaw&63)))
			tries[i] = trie.Build(rel, nil)
			if i == k-1 && kRaw&4 != 0 {
				// A patched leg: rebuild the last one as a patch of an
				// empty base carrying the same tuples, which sends the frog
				// down the scalar fallback.
				pt, err := trie.BuildPatched(trie.Build(relation.MustNew("A", arity, nil), nil),
					rel, relation.MustNew("A", arity, nil), nil)
				if err != nil {
					t.Fatal(err)
				}
				tries[i] = pt
			}
		}

		// scan runs one frog to the end and closes it, returning its
		// matches, the depth and key each leg is back on (no key at the
		// root) and the flushed counters.
		scan := func(how frogInit, bs int) (matches, ups []int64, c stats.Counters) {
			matches, legs := scanFrog(tries, &c, parent, how, bs)
			for _, l := range legs {
				ups = append(ups, int64(l.Depth()))
				if parent >= 0 {
					ups = append(ups, l.Key())
				}
			}
			flushAll(legs)
			return matches, ups, c
		}
		want, wantUps, cs := scan(viaScalar, 0)
		for _, how := range kernelInits {
			for _, bs := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 256} {
				got, ups, cb := scan(how, bs)
				if !slices.Equal(got, want) {
					t.Fatalf("init=%d bs=%d: matches %v, want %v", how, bs, got, want)
				}
				if !slices.Equal(ups, wantUps) {
					t.Fatalf("init=%d bs=%d: legs back on %v, want %v", how, bs, ups, wantUps)
				}
				if cb != cs {
					t.Fatalf("init=%d bs=%d: batch counters %+v, scalar %+v", how, bs, cb, cs)
				}
			}
		}
	})
}
