package trie

import (
	"math"
	"math/rand"
	"slices"
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
// on n elements when the predicate flips at offset r — for every (n, r)
// with n <= 4096, both sides of the table/replay split; for every r
// around each power of two up to 2^20, where the replay's trip count
// steps; and for seeded random pairs with n < 2^24.
func TestBinProbesMatchesSortSearch(t *testing.T) {
	check := func(n, r int32) {
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
	const swept = 4096
	for n := int32(0); n <= swept; n++ {
		for r := int32(0); r <= n; r++ {
			check(n, r)
		}
	}
	for k := 0; k <= 20; k++ {
		for _, n := range []int32{1<<k - 1, 1 << k, 1<<k + 1} {
			if n <= swept {
				continue
			}
			for r := int32(0); r <= n; r++ {
				check(n, r)
			}
		}
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 100_000; i++ {
		n := rng.Int31n(1 << 24)
		check(n, rng.Int31n(n+1))
	}
}

// TestSeekExtremes pins gallop and SeekGE at the ends of the int64
// range, where a compare by subtraction would overflow: levels holding
// MinInt64, MinInt64+1, −1, 0, 1, MaxInt64−1 and MaxInt64 — alone, and
// inside runs at both ends long enough that a seek from the front passes
// the charge table and its binary window holds keys of both signs —
// searched for every key and for values between them. Each seek must
// land where sort.Search lands and charge what refSeekLevel does.
func TestSeekExtremes(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	padded := slices.Clone(edges)
	for i := int64(0); i < 40; i++ {
		padded = append(padded, math.MinInt64+2+i, math.MaxInt64-2-i)
	}
	slices.Sort(padded)
	targets := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2, math.MinInt64 / 2, -2, -1, 0,
		1, 2, math.MaxInt64 / 2, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64,
	}
	for _, keys := range [][]int64{edges, padded} {
		tr := Build(unaryRel(keys), nil)
		for _, v := range targets {
			want := int32(sort.Search(len(keys), func(i int) bool { return keys[i] >= v }))
			if got, _ := gallop(keys, v); got != want {
				t.Errorf("%d keys: gallop(%d) = %d, sort.Search = %d", len(keys), v, got, want)
			}
			var c stats.Counters
			it := tr.NewIteratorCounters(&c)
			it.Open()
			it.SeekGE(v)
			refCharges := int64(1) // Open
			refSeekLevel(keys, 0, int32(len(keys)), v, &refCharges)
			switch {
			case want == int32(len(keys)):
				if !it.AtEnd() {
					t.Errorf("%d keys: SeekGE(%d) at %d, want AtEnd", len(keys), v, it.Key())
				}
			case it.AtEnd():
				t.Errorf("%d keys: SeekGE(%d) AtEnd, want %d", len(keys), v, keys[want])
			default:
				if k := it.Key(); k != keys[want] {
					t.Errorf("%d keys: SeekGE(%d) = %d, want %d", len(keys), v, k, keys[want])
				}
				refCharges++ // Key
			}
			it.Flush()
			if c.TrieAccesses != refCharges {
				t.Errorf("%d keys: SeekGE(%d) charged %d, reference %d", len(keys), v, c.TrieAccesses, refCharges)
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
