package trie

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestBuildParallelEquivalence checks the chunked parallel builder is
// bit-identical to the sequential one — same level values, child
// offsets and row grouping — across random relations spanning both
// sides of the parallel threshold (small levels take the sequential
// path; the large trial exercises real chunking).
func TestBuildParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trial := func(arity, n, workers int) {
		t.Helper()
		rel := randomRel(rng, arity, n)
		seq := build(rel, nil, 1)
		par := build(rel, nil, workers)
		for d := 0; d < arity; d++ {
			if !reflect.DeepEqual(seq.levels[d].vals, par.levels[d].vals) {
				t.Fatalf("arity %d n %d workers %d: level %d vals diverge", arity, n, workers, d)
			}
			if !reflect.DeepEqual(seq.levels[d].start, par.levels[d].start) {
				t.Fatalf("arity %d n %d workers %d: level %d start diverge", arity, n, workers, d)
			}
		}
	}
	for i := 0; i < 40; i++ {
		trial(1+rng.Intn(4), rng.Intn(300), 1+rng.Intn(8))
	}
	// Past the parallel threshold: clustered values so chunk alignment
	// has runs to skip over.
	big := make([][]int64, 0, 3*parallelBuildMinRows)
	for i := 0; i < 3*parallelBuildMinRows; i++ {
		big = append(big, []int64{int64(rng.Intn(500)), int64(rng.Intn(64)), int64(rng.Intn(1 << 20))})
	}
	rel := buildRel(t, 3, big)
	seq := build(rel, nil, 1)
	for _, workers := range []int{2, 3, 8} {
		par := build(rel, nil, workers)
		for d := 0; d < 3; d++ {
			if !reflect.DeepEqual(seq.levels[d].vals, par.levels[d].vals) ||
				!reflect.DeepEqual(seq.levels[d].start, par.levels[d].start) {
				t.Fatalf("workers %d: large level %d diverges from sequential build", workers, d)
			}
		}
	}
}
