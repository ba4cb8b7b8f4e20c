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

// FuzzBlockIntersect drives the kernel frog — trie.Leapfrog's Open,
// Key, Next, SeekGE, NextBatch and Close, as Runner.OpenDepth,
// Runner.OpenLeaf and core's executors call them — against the scalar
// reference Frog on fuzzer-chosen relations: a k-way intersection over
// 1..10 legs of each shape (small unary domains, dense roots, sibling
// ranges under a fuzzer-chosen parent), any subset of them patched
// (patchedTrie), opened with or without a first block and driven
// by a fuzzer-written script of Next and SeekGE steps between block
// drains. Legs past the fourth draw on the four byte streams again,
// shorter by a byte each round. The keys read and the flushed counters
// must be identical at every block size, and the legs must come back up
// to where they were opened.
func FuzzBlockIntersect(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, []byte{}, uint8(0), uint8(shapeUnary), uint8(0), uint16(0))                                            // empty legs
	f.Add([]byte{5}, []byte{5}, []byte{}, []byte{}, []byte{0}, uint8(0), uint8(shapeUnary), uint8(0), uint16(1))                                         // single-key leg, patched
	f.Add([]byte{1, 1, 1, 2, 2, 1, 2}, []byte{1, 2, 1, 1}, []byte{2, 2, 2}, []byte{}, []byte{2, 0, 1}, uint8(2), uint8(shapeUnary), uint8(0), uint16(4)) // duplicate-heavy, patched
	f.Add([]byte{0, 2, 4, 6, 8, 10}, []byte{1, 2, 3, 4, 5, 6}, []byte{2, 4, 8}, []byte{4}, []byte{}, uint8(3), uint8(shapeUnary), uint8(0), uint16(0))
	f.Add([]byte{3, 9, 200, 17}, []byte{5, 130, 131, 250}, []byte{1, 2, 3}, []byte{}, []byte{4, 2, 7}, uint8(1), uint8(shapeDense), uint8(0), uint16(2))
	f.Add([]byte{65, 70, 80, 90, 100, 127}, []byte{66, 70, 90, 91, 127}, []byte{70, 90, 127}, []byte{90}, []byte{1, 0}, uint8(3), uint8(shapeBelow), uint8(1), uint16(15))
	f.Add([]byte{10, 20, 30, 40, 50, 60}, []byte{20, 40, 60, 63}, []byte{}, []byte{}, []byte{}, uint8(4), uint8(shapeBelow), uint8(20), uint16(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 2, 4, 6, 8}, []byte{0, 4, 8, 12}, []byte{0, 8, 16}, []byte{0, 1, 2, 3, 5, 8}, uint8(9), uint8(shapeUnary), uint8(0), uint16(0x2aa)) // ten legs, half patched
	f.Add([]byte{1, 5, 9, 13}, []byte{1, 9}, []byte{1, 13}, []byte{1}, []byte{2, 2, 1}, uint8(8), uint8(shapeDense), uint8(0), uint16(0x3ff))                                              // nine legs, all patched

	f.Fuzz(func(t *testing.T, aB, bB, cB, dB, script []byte, kRaw, shapeRaw, parentRaw uint8, patched uint16) {
		k := int(kRaw%10) + 1
		shape := int(shapeRaw % numShapes)
		parent := int64(-1)
		arity := 1
		if shape == shapeBelow {
			parent = int64(parentRaw % 4)
			arity = 2
		}
		streams := [][]byte{aB, bB, cB, dB}
		tries := make([]*trie.Trie, k)
		for i := range tries {
			data := streams[i%4]
			data = data[min(i/4, len(data)):]
			tuples := fuzzTuples(data, shape, parent, int64(parentRaw&63))
			if patched&(1<<i) != 0 {
				tries[i] = patchedTrie(t, arity, tuples)
			} else {
				tries[i] = trie.Build(relation.MustNew("A", arity, tuples), nil)
			}
		}

		// scan runs one frog to the end and closes it, returning the keys
		// it read, the depth and key each leg is back on (no key at the
		// root) and the flushed counters.
		scan := func(scalar, leaf bool, bs int) (keys, ups []int64, c stats.Counters) {
			keys, legs := scanFrog(tries, &c, parent, scalar, leaf, script, bs)
			for _, l := range legs {
				ups = append(ups, int64(l.Depth()))
				if parent >= 0 {
					ups = append(ups, l.Key())
				}
			}
			flushAll(legs)
			return keys, ups, c
		}
		for _, leaf := range []bool{false, true} {
			for _, bs := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 256} {
				want, wantUps, cs := scan(true, leaf, bs)
				got, ups, cb := scan(false, leaf, bs)
				if !slices.Equal(got, want) {
					t.Fatalf("leaf=%v bs=%d: keys %v, want %v", leaf, bs, got, want)
				}
				if !slices.Equal(ups, wantUps) {
					t.Fatalf("leaf=%v bs=%d: legs back on %v, want %v", leaf, bs, ups, wantUps)
				}
				if cb != cs {
					t.Fatalf("leaf=%v bs=%d: kernel counters %+v, scalar %+v", leaf, bs, cb, cs)
				}
			}
		}
	})
}
