package trie

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/stats"
)

// BenchmarkSeekGE is the rung for the scalar seek every non-leaf
// leapfrog step makes: one sibling range of the given length, crossed in
// seeks that each land dist keys ahead — exactly dist on the fixed axis,
// a seeded uniform gap in [1, 2·dist) on the rand axis. The fixed axis
// trains the branch predictor on one search path; the rand axis is the
// shape of a join's seeks, whose compares it cannot guess. ns/op is what
// gallop and the final binary phase really cost; accesses/op is the
// charge model's sort.Search count, which the search layout may not
// move. A pass's Open, Up and closing seek past the end are amortized
// into both. The keys are 8 apart, too sparse for the dense root index,
// so these cells time the search a sibling range below the root runs.
//
// The root=dense axis times level-0 seeks on a level whose keys are 2
// apart, at the same seeded random distances: the dense root index
// answers them with one load, however far they land.
func BenchmarkSeekGE(b *testing.B) {
	for _, n := range []int{8, 64, 4096, 65536} {
		tr := strideTrie(n, 8)
		for _, dist := range []int{1, 16, 256, 4096} {
			if dist >= n {
				break
			}
			b.Run(fmt.Sprintf("len=%d/dist=%d", n, dist), func(b *testing.B) {
				benchSeeks(b, tr, [][]int64{seekTargets(n, 8, func() int { return dist })})
			})
		}
		for _, dist := range []int{16, 256, 4096} {
			if dist >= n {
				break
			}
			b.Run(fmt.Sprintf("len=%d/dist=rand%d", n, dist), func(b *testing.B) {
				benchSeeks(b, tr, randPasses(n, 8, dist))
			})
		}
	}
	const n = 65536
	tr := strideTrie(n, 2)
	if tr.levels[0].dense == nil {
		b.Fatal("the root=dense level has no dense index")
	}
	for _, dist := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("root=dense/len=%d/dist=rand%d", n, dist), func(b *testing.B) {
			benchSeeks(b, tr, randPasses(n, 2, dist))
		})
	}
}

// strideTrie is a unary trie over the n keys 0, stride, …, stride·(n−1).
func strideTrie(n int, stride int64) *Trie {
	tuples := make([][]int64, n)
	for i := range tuples {
		tuples[i] = []int64{stride * int64(i)}
	}
	return Build(relation.MustNew("S", 1, tuples), nil)
}

// randPasses lists distinct passes of seeded uniform gaps in
// [1, 2·dist), 2^17 seeks in all: a short pattern replayed every pass
// would be learned by the predictor.
func randPasses(n int, stride int64, dist int) [][]int64 {
	rng := rand.New(rand.NewSource(int64(n + dist)))
	var passes [][]int64
	for seeks := 0; seeks < 1<<17; {
		p := seekTargets(n, stride, func() int { return 1 + rng.Intn(2*dist-1) })
		passes = append(passes, p)
		seeks += len(p)
	}
	return passes
}

// seekTargets lists one pass's seek targets over strideTrie(n, stride)'s
// keys: each lands gap() keys past the last, and the final one falls
// past the end. Targets sit one past a key, between keys, so every seek
// searches.
func seekTargets(n int, stride int64, gap func() int) []int64 {
	var out []int64
	for v := int64(1); ; v += stride * int64(gap()) {
		out = append(out, v)
		if v > stride*int64(n-1) {
			return out
		}
	}
}

// benchSeeks times SeekGE over passes through the trie, cycling through
// the passes' target lists.
func benchSeeks(b *testing.B, tr *Trie, passes [][]int64) {
	var c stats.Counters
	it := tr.NewIteratorCounters(&c)
	for i, p := 0, 0; i < b.N; p = (p + 1) % len(passes) {
		it.Open()
		for _, v := range passes[p] {
			if i == b.N || it.AtEnd() {
				break
			}
			it.SeekGE(v)
			i++
		}
		it.Up()
	}
	it.Flush()
	b.ReportMetric(float64(c.TrieAccesses)/float64(b.N), "accesses/op")
}

// BenchmarkBuild is the rung for a cold index build: the columnar
// two-pass builder over a skewed 200k-row ternary relation, sequential
// and with one chunk worker per core.
func BenchmarkBuild(b *testing.B) {
	const n = 200_000
	rng := rand.New(rand.NewSource(515))
	tuples := make([][]int64, n)
	for i := range tuples {
		tuples[i] = []int64{int64(rng.Intn(n / 64)), int64(rng.Intn(256)), int64(rng.Intn(1 << 30))}
	}
	rel := relation.MustNew("B", 3, tuples)
	for _, tc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"percore", runtime.GOMAXPROCS(0)}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildParallel(rel, nil, tc.workers)
			}
			b.ReportMetric(float64(rel.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

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
