package trie

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/relation"
)

// BenchmarkPatchedScan is the trie rung for reads under live deltas: a
// ≈1.5k-edge skewed graph one 16-tuple delta (eight edges out, eight
// in) from its base — and 256 tuples from it, near where the store
// compacts — walked through the merge iterator. "scan" is a full
// depth-first Key/Next walk, every base-cursor move a dead-node check;
// "seek" opens every source and leaps through its targets in steps of
// three, the shape of a leapfrog intersection's seeks.
func BenchmarkPatchedScan(b *testing.B) {
	for _, delta := range []int{16, 256} {
		b.Run(fmt.Sprint("delta=", delta), func(b *testing.B) { benchPatchedScan(b, delta) })
	}
}

func benchPatchedScan(b *testing.B, delta int) {
	rel := dataset.TriadicPA(260, 6, 0.5, 33).EdgeRelation("E", false)
	var ins, del [][]int64
	for i := 0; i < delta/2; i++ {
		ins = append(ins, []int64{int64(9000 + i), int64(9001 + i)})
		// Deletes spread over the whole relation, as random ones are.
		del = append(del, append([]int64(nil), rel.Tuple(i*(rel.Len()/(delta/2)))...))
	}
	pt, err := BuildPatched(Build(rel, nil), relation.MustNew("E", 2, ins), relation.MustNew("E", 2, del), nil)
	if err != nil {
		b.Fatal(err)
	}
	want := int64(rel.Len())
	b.Run("scan", func(b *testing.B) {
		it := pt.NewIteratorCounters(nil)
		for i := 0; i < b.N; i++ {
			var n int64
			it.Open()
			for !it.AtEnd() {
				it.Open()
				for !it.AtEnd() {
					n++
					it.Next()
				}
				it.Up()
				it.Next()
			}
			it.Up()
			if n != want {
				b.Fatalf("scanned %d tuples, want %d", n, want)
			}
		}
	})
	b.Run("seek", func(b *testing.B) {
		it := pt.NewIteratorCounters(nil)
		var sum int64
		for i := 0; i < b.N; i++ {
			it.Open()
			for !it.AtEnd() {
				it.Open()
				for !it.AtEnd() {
					k := it.Key()
					sum += k
					it.SeekGE(k + 3)
				}
				it.Up()
				it.Next()
			}
			it.Up()
		}
		if sum == 0 {
			b.Fatal("the seeks saw no key")
		}
	})
}
