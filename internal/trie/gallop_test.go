package trie

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
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

// TestBinProbesNextKey pins the closed form lowerBound charges a
// next-key seek: sort.Search over n elements flipping at offset 0 or 1
// probes exactly bits.Len(n) times — for every n < 2^20, and for seeded
// random n < 2^30.
func TestBinProbesNextKey(t *testing.T) {
	check := func(n int32) {
		want := int64(bits.Len32(uint32(n)))
		if got := binProbes(n, 0); got != want {
			t.Fatalf("binProbes(%d, 0) = %d, want bits.Len = %d", n, got, want)
		}
		if n == 0 {
			return
		}
		if got := binProbes(n, 1); got != want {
			t.Fatalf("binProbes(%d, 1) = %d, want bits.Len = %d", n, got, want)
		}
	}
	for n := int32(0); n < 1<<20; n++ {
		check(n)
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 100_000; i++ {
		check(rng.Int31n(1 << 30))
	}
}

// TestDenseRootIndex holds the dense root index to sort.Search and its
// charge to binProbes: on levels that qualify — in the middle of the
// int64 range and at both ends — lowerBound over the whole level and
// over ranges that are not the whole level lands where sort.Search lands
// and charges binProbes(n, offset), for targets below the least key,
// above the greatest, on keys and in gaps. Levels just below the
// density rule must get no table.
func TestDenseRootIndex(t *testing.T) {
	// spaced returns n keys from first, each gap(i) past the previous.
	spaced := func(first int64, n int, gap func(i int) int64) []int64 {
		keys := []int64{first}
		for i := 1; i < n; i++ {
			keys = append(keys, keys[i-1]+gap(i))
		}
		return keys
	}
	gappy := func(i int) int64 { return 1 + int64(i%3) } // gaps of 1–3: span < 3n
	run := func(first int64, n int) []int64 {
		return spaced(first, n, func(int) int64 { return 1 })
	}
	// 64 keys from −7 whose last lands so the level spans `codes` codes.
	spanning := func(codes int64) []int64 { return append(run(-7, 63), -7+codes-1) }
	for _, tc := range []struct {
		name  string
		keys  []int64
		dense bool
	}{
		{"gappy", spaced(100, 200, gappy), true},
		{"min-end", spaced(math.MinInt64, 90, gappy), true},
		{"max-end", run(math.MaxInt64-63, 64), true},
		{"span-4n-1", spanning(denseSpread*64 - 1), true},
		{"63-keys", run(0, denseMinKeys-1), false},
		{"span-4n", spanning(denseSpread * 64), false},
		{"whole-int64", append(run(math.MinInt64, 63), math.MaxInt64), false},
	} {
		tr := Build(unaryRel(tc.keys), nil)
		lvl := &tr.levels[0]
		if span := uint64(tc.keys[len(tc.keys)-1]-tc.keys[0]) + 1; (lvl.dense != nil) != tc.dense {
			t.Fatalf("%s: %d keys over %d codes: table %v, want %v", tc.name, len(tc.keys), span, lvl.dense != nil, tc.dense)
		}
		lo, hi := tc.keys[0], tc.keys[len(tc.keys)-1]
		targets := []int64{math.MinInt64, math.MaxInt64, lo, hi}
		if lo > math.MinInt64 {
			targets = append(targets, lo-1)
		}
		if hi < math.MaxInt64 {
			targets = append(targets, hi+1)
		}
		for _, k := range tc.keys[1:] {
			targets = append(targets, k, k-1) // on keys, and in the gap below each
		}
		m := int32(len(tc.keys))
		for _, r := range []span{{0, m}, {1, m}, {0, m - 1}, {m / 3, 2 * m / 3}, {m / 2, m/2 + 1}, {m / 2, m / 2}} {
			for _, v := range targets {
				off := int32(sort.Search(int(r.hi-r.lo), func(i int) bool { return tc.keys[r.lo+int32(i)] >= v }))
				p, charge := lvl.lowerBound(r.lo, r.hi, v)
				if p != r.lo+off {
					t.Fatalf("%s: lowerBound(%v, %d) = %d, sort.Search %d", tc.name, r, v, p, r.lo+off)
				}
				if want := binProbes(r.hi-r.lo, off); charge != want {
					t.Fatalf("%s: lowerBound(%v, %d) charged %d, binProbes %d", tc.name, r, v, charge, want)
				}
			}
		}
	}
}

// TestDenseIndexScope pins which tries carry the dense root index and
// that each answers like the plain search: a built trie and its
// FromLevels reopening have one; a patched trie seeks its base side
// through the base's and its overlay through its own; an Under view has
// none, because its first level is a deeper level sorted only within
// sibling ranges.
func TestDenseIndexScope(t *testing.T) {
	var tuples [][]int64
	for x := int64(0); x < 100; x++ {
		for y := x; y < x+70; y++ {
			tuples = append(tuples, []int64{x, y})
		}
	}
	built := Build(relation.MustNew("E", 2, tuples), nil)
	opened, err := FromLevels(snapLevels(t, built))
	if err != nil {
		t.Fatal(err)
	}
	var adds, dels [][]int64
	for x := int64(100); x < 180; x++ {
		adds = append(adds, []int64{x, 0})
	}
	for y := int64(5); y < 75; y++ {
		dels = append(dels, []int64{5, y}) // root 5 dies
	}
	patched, err := BuildPatched(built, relation.MustNew("E", 2, adds), relation.MustNew("E", 2, dels), nil)
	if err != nil {
		t.Fatal(err)
	}
	view, found := built.Under([]int64{3})
	if !found {
		t.Fatal("Under(3) found nothing")
	}
	for _, tc := range []struct {
		name  string
		l     *level
		dense bool
	}{
		{"built", &built.levels[0], true},
		{"opened", &opened.levels[0], true},
		{"patched base", &patched.levels[0], true},
		{"patched overlay", &patched.patch.adds[0], true},
		{"built level 1", &built.levels[1], false},
		{"view", &view.levels[0], false},
	} {
		if (tc.l.dense != nil) != tc.dense {
			t.Errorf("%s: dense index %v, want %v", tc.name, tc.l.dense != nil, tc.dense)
		}
	}

	// Every root seek lands on the least live key >= v and charges what
	// the historical search did.
	var roots, live []int64
	for x := int64(0); x < 180; x++ {
		if x < 100 {
			roots = append(roots, x)
		}
		if x != 5 {
			live = append(live, x)
		}
	}
	for _, tc := range []struct {
		name string
		tr   *Trie
		keys []int64
		ref  seekRef
	}{
		{"built", built, roots, seekRef{base: roots}},
		{"opened", opened, roots, seekRef{base: roots}},
		{"patched", patched, live, seekRef{base: roots, adds: patched.patch.adds[0].vals, dead: map[int32]bool{5: true}}},
	} {
		for _, v := range []int64{-3, 0, 4, 5, 6, 70, 99, 100, 101, 150, 179, 180, math.MaxInt64} {
			var c stats.Counters
			it := tc.tr.NewIteratorCounters(&c)
			ref := tc.ref
			it.Open()
			ref.open()
			it.SeekGE(v)
			ref.seek(v)
			want, ok := ref.key()
			i, _ := slices.BinarySearch(tc.keys, v)
			if ok != (i < len(tc.keys)) || ok && want != tc.keys[i] {
				t.Fatalf("%s: reference SeekGE(%d) disagrees with the key list", tc.name, v)
			}
			switch {
			case !ok && !it.AtEnd():
				t.Fatalf("%s: SeekGE(%d) = %d, want AtEnd", tc.name, v, it.Key())
			case ok && it.AtEnd():
				t.Fatalf("%s: SeekGE(%d) AtEnd, want %d", tc.name, v, want)
			case ok && it.Key() != want:
				t.Fatalf("%s: SeekGE(%d) = %d, want %d", tc.name, v, it.Key(), want)
			}
			if ok {
				ref.charges++ // Key
			}
			it.Flush()
			if c.TrieAccesses != ref.charges {
				t.Fatalf("%s: SeekGE(%d) charged %d, reference %d", tc.name, v, c.TrieAccesses, ref.charges)
			}
		}
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
