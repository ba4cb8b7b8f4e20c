package trie

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// This file pins the galloping-seek contract: SeekGE must land exactly
// where the historical binary search landed, and the accounting it
// charges must be bit-identical to the per-probe charges of that
// implementation — position equivalence, model-cost equivalence, and
// the binProbes replay against an instrumented sort.Search.

// refSeekLevel is the historical seek: the current-position check, then
// sort.Search over the remaining range, charging one access per
// physical probe. It is the accounting reference the galloping
// implementation must match charge-for-charge.
func refSeekLevel(vals []int64, pos, hi int32, v int64, charges *int64) int32 {
	if pos < hi {
		*charges++
		if vals[pos] >= v {
			return pos
		}
		pos++
	}
	probes := int64(0)
	i := int32(sort.Search(int(hi-pos), func(i int) bool {
		probes++
		return vals[pos+int32(i)] >= v
	}))
	*charges += probes
	return pos + i
}

// TestBinProbesMatchesSortSearch verifies the charged model cost:
// binProbes(n, r) must equal the number of probes sort.Search performs
// on n elements when the predicate flips at offset r, for every (n, r)
// with n <= 4096 — both sides of the table/replay split.
func TestBinProbesMatchesSortSearch(t *testing.T) {
	for n := int32(0); n <= 4096; n++ {
		for r := int32(0); r <= n; r++ {
			var probes int64
			got := sort.Search(int(n), func(i int) bool {
				probes++
				return int32(i) >= r
			})
			if int32(got) != r {
				t.Fatalf("sort.Search(%d) flipped at %d landed at %d", n, r, got)
			}
			if bp := binProbes(n, r); bp != probes {
				t.Fatalf("binProbes(%d, %d) = %d, sort.Search probed %d times", n, r, bp, probes)
			}
		}
	}
}

// TestGallopSeekEquivalence drives random monotone seek sequences over
// one trie level and checks, per seek, that the galloping SeekGE lands
// on the reference position and charges exactly the reference's access
// count.
func TestGallopSeekEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		seen := make(map[int64]bool)
		var tuples [][]int64
		for i := 0; i < n; i++ {
			v := int64(rng.Intn(4 * n))
			if !seen[v] {
				seen[v] = true
				tuples = append(tuples, []int64{v})
			}
		}
		rel := buildRel(t, 1, tuples)
		vals := make([]int64, rel.Len())
		for i := range vals {
			vals[i] = rel.Tuple(i)[0]
		}
		tr := Build(rel, nil)

		var c stats.Counters
		it := tr.NewIteratorCounters(&c)
		it.Open()
		openCharge := int64(1) // Open at the root charges one access
		var refCharges int64
		refPos := int32(0)
		hi := int32(len(vals))
		target := int64(-5)
		for step := 0; step < 40 && !it.AtEnd(); step++ {
			target += int64(rng.Intn(3 * (len(vals)/8 + 1)))
			it.SeekGE(target)
			refPos = refSeekLevel(vals, refPos, hi, target, &refCharges)
			if refPos >= hi {
				if !it.AtEnd() {
					t.Fatalf("trial %d: reference AtEnd, gallop at key %d", trial, it.Key())
				}
				break
			}
			if it.AtEnd() {
				t.Fatalf("trial %d: gallop AtEnd, reference at %d", trial, vals[refPos])
			}
			key := it.Key()
			it.Flush()
			refCharges++ // the reference Key read
			if key != vals[refPos] {
				t.Fatalf("trial %d: SeekGE(%d) = %d, reference %d", trial, target, key, vals[refPos])
			}
			if got := c.TrieAccesses - openCharge; got != refCharges {
				t.Fatalf("trial %d step %d: charged %d accesses, reference charged %d",
					trial, step, got, refCharges)
			}
		}
	}
}

// TestGallopProbeClass pins the physical cost class next to position
// correctness: for random sorted levels and targets, gallop must land
// exactly where sort.Search lands while probing O(log m) cells for a
// landing offset m — independent of the level size. The old binary
// search probed Θ(log n) even for adjacent seeks; the charged *model*
// cost deliberately keeps that Θ(log n) shape (accounting
// compatibility), but the physical work class must be logarithmic in
// the seek distance.
func TestGallopProbeClass(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	log2 := func(x int32) int32 {
		var b int32
		for x > 0 {
			b++
			x >>= 1
		}
		return b
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(1<<13)
		vals := make([]int64, n)
		v := int64(0)
		for i := range vals {
			v += int64(1 + rng.Intn(4))
			vals[i] = v
		}
		for probe := 0; probe < 20; probe++ {
			target := int64(rng.Intn(int(vals[n-1]) + 3))
			want := int32(sort.Search(n, func(i int) bool { return vals[i] >= target }))
			got, probes := gallop(vals, target)
			if got != want {
				t.Fatalf("trial %d: gallop(%d) = %d, sort.Search = %d", trial, target, got, want)
			}
			if bound := 2*log2(got+2) + 4; probes > bound {
				t.Fatalf("trial %d: gallop landed at %d with %d probes (> %d): not O(log m)",
					trial, got, probes, bound)
			}
		}
	}
}
