package leapfrog

import (
	"fmt"
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

// frogOver opens fresh iterators over the tries at level 0 and wraps
// them in a frog, accounting into c.
func frogOver(tries []*trie.Trie, c *stats.Counters) (*Frog, []*trie.Iterator, bool) {
	legs := make([]*trie.Iterator, len(tries))
	for i, tr := range tries {
		legs[i] = tr.NewIteratorCounters(c)
		legs[i].Open()
	}
	f := NewFrog(legs)
	return f, legs, f.Init()
}

func flushAll(legs []*trie.Iterator) {
	for _, l := range legs {
		l.Flush()
	}
}

// drainScalar enumerates the frog's matches with Key/Next.
func drainScalar(f *Frog, ok bool) []int64 {
	var out []int64
	for ok {
		out = append(out, f.Key())
		ok = f.Next()
	}
	return out
}

// drainBatch enumerates the frog's matches with NextBatch blocks.
func drainBatch(f *Frog, ok bool, block []int64) []int64 {
	var out []int64
	if !ok {
		return nil
	}
	for {
		n := f.NextBatch(block)
		if n == 0 {
			break
		}
		out = append(out, block[:n]...)
	}
	return out
}

// TestFrogNextBatchEquivalence pins the block-intersection contract on
// hand-picked leg shapes: identical matches and bit-identical counters
// vs the scalar frog, across block sizes, including the
// single-materialized-leg fast path and the patched-leg fallback.
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
		"empty-intersection":  {a, unaryTrie(t, []int64{100, 200})},
		"empty-leg":           {a, unaryTrie(t, nil)},
	}
	for name, tries := range cases {
		var cs stats.Counters
		f, legs, ok := frogOver(tries, &cs)
		want := drainScalar(f, ok)
		flushAll(legs)

		for _, bs := range []int{1, 2, 3, 64, 256} {
			var cb stats.Counters
			f, legs, ok := frogOver(tries, &cb)
			got := drainBatch(f, ok, make([]int64, bs))
			flushAll(legs)
			if len(got) != len(want) {
				t.Fatalf("%s bs=%d: %d matches, want %d (%v vs %v)", name, bs, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s bs=%d: match %d = %d, want %d", name, bs, i, got[i], want[i])
				}
			}
			if cb != cs {
				t.Errorf("%s bs=%d: batch counters %+v, scalar %+v", name, bs, cb, cs)
			}
		}
	}
}

var frogSink int64

// BenchmarkFrog is the leapfrog rung under core's leaf scan: one op
// drains a k-way intersection of unary legs (leg j holds the multiples of
// j+1), with the scalar Key/Next sequence and with NextBatch blocks of
// the length core uses, by arity. One leg is the materialized bulk copy;
// two and three legs are NextBatch's per-key fallback, so those pairs
// should read alike. accesses/op must be the same within every pair.
func BenchmarkFrog(b *testing.B) {
	const domain = 1 << 13
	var block [256]int64
	for arity := 1; arity <= 3; arity++ {
		var c stats.Counters
		legs := make([]*trie.Iterator, arity)
		for j := range legs {
			var keys []int64
			for k := int64(0); k < domain; k += int64(j + 1) {
				keys = append(keys, k)
			}
			legs[j] = unaryTrie(b, keys).NewIteratorCounters(&c)
		}
		f := NewFrog(legs)
		for _, mode := range []struct {
			name  string
			drain func(ok bool) int
		}{
			{"next", func(ok bool) (n int) {
				for ; ok; ok = f.Next() {
					frogSink += f.Key()
					n++
				}
				return n
			}},
			{"nextbatch", func(ok bool) (n int) {
				for ok {
					n += f.NextBatch(block[:])
					ok = !f.AtEnd()
				}
				return n
			}},
		} {
			b.Run(fmt.Sprintf("%s/legs=%d", mode.name, arity), func(b *testing.B) {
				scan := func() int {
					for _, l := range legs {
						l.Open()
					}
					n := mode.drain(f.Init())
					for _, l := range legs {
						l.Up()
					}
					return n
				}
				want := scan()
				flushAll(legs)
				c.Reset()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if scan() != want {
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
