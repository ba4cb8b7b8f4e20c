package trie

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

// fuzzTuples decodes a byte stream into binary tuples over a small
// domain (so duplicates and shared prefixes are common).
func fuzzTuples(data []byte) [][]int64 {
	var out [][]int64
	for i := 0; i+1 < len(data); i += 2 {
		out = append(out, []int64{int64(data[i] % 16), int64(data[i+1] % 16)})
	}
	return out
}

// FuzzBatchSeek drives the batch iterator API against the scalar
// reference on fuzzer-built key sets — materialized and patched tries —
// asserting identical key sequences and bit-identical flushed counters
// for NextBatch walks and SeekGE-then-NextBatch probes.
func FuzzBatchSeek(f *testing.F) {
	f.Add([]byte{}, []byte{}, int64(0), uint8(1))                                       // empty legs
	f.Add([]byte{3, 7}, []byte{}, int64(3), uint8(4))                                   // single-key leg
	f.Add([]byte{1, 1, 1, 1, 1, 2, 1, 2, 2, 1, 2, 1}, []byte{1, 2}, int64(1), uint8(2)) // duplicate-heavy
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []byte{2, 3, 4, 5}, int64(6), uint8(3))

	f.Fuzz(func(t *testing.T, baseB, patchB []byte, seek int64, bsRaw uint8) {
		bs := int(bsRaw%8) + 1
		baseTuples := fuzzTuples(baseB)
		base := relation.MustNew("E", 2, baseTuples)
		mat := Build(base, nil)

		tries := []*Trie{mat}
		// Patch: insert the patch tuples, delete every other base tuple.
		patchTuples := fuzzTuples(patchB)
		var dels [][]int64
		for i := 0; i < len(baseTuples); i += 2 {
			dels = append(dels, baseTuples[i])
		}
		pt, err := BuildPatched(mat,
			relation.MustNew("E", 2, patchTuples),
			relation.MustNew("E", 2, dels), nil)
		if err != nil {
			t.Fatal(err)
		}
		tries = append(tries, pt)

		for _, tr := range tries {
			// Full DFS: scalar vs leaf-batched.
			var cs stats.Counters
			its := tr.NewIteratorCounters(&cs)
			var want []int64
			dfsScalar(its, tr.Arity(), &want)
			its.Flush()

			var cb stats.Counters
			itb := tr.NewIteratorCounters(&cb)
			var got []int64
			dfsBatch(itb, tr.Arity(), make([]int64, bs), &got)
			itb.Flush()
			sameKeys(t, "dfs", got, want)
			if cb != cs {
				t.Fatalf("dfs: batch counters %+v, scalar %+v", cb, cs)
			}

			// Level-0 seek: SeekGE + scalar drain vs SeekGE + batch drain.
			cs, cb = stats.Counters{}, stats.Counters{}
			its = tr.NewIteratorCounters(&cs)
			its.Open()
			its.SeekGE(seek)
			want = want[:0]
			for !its.AtEnd() {
				want = append(want, its.Key())
				its.Next()
			}
			its.Flush()

			itb = tr.NewIteratorCounters(&cb)
			itb.Open()
			block := make([]int64, bs)
			got = got[:0]
			itb.SeekGE(seek)
			for n := itb.NextBatch(block); n > 0; n = itb.NextBatch(block) {
				got = append(got, block[:n]...)
			}
			itb.Flush()
			sameKeys(t, "seek", got, want)
			if cb != cs {
				t.Fatalf("seek(%d): batch counters %+v, scalar %+v", seek, cb, cs)
			}

			// The drained keys must be sorted — the sibling-order invariant.
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("seek drain not sorted: %v", got)
			}
		}
	})
}

// FuzzTrieUnder binds a fuzzer-chosen constant prefix on built,
// store-opened and patched tries over a fuzzer-built ternary relation
// and its delta, for both constant-column choices the prefix length
// allows, and holds every view to a trie over the selected and
// projected relation (checkView: keys, Len, charged accesses).
func FuzzTrieUnder(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0), false)
	f.Add([]byte{1, 2, 3, 1, 2, 4, 1, 5, 6, 2, 2, 2}, []byte{1, 2, 3, 1, 2, 4, 3, 3, 3}, uint8(1), uint8(2), true) // kills node (1,2)
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{6, 1, 7}, uint8(6), uint8(1), true)                                     // overlay-only constant
	f.Add([]byte{4, 4, 4, 4, 4, 5}, []byte{4, 4, 4, 4, 4, 5, 4, 9, 9}, uint8(4), uint8(9), false)                  // dead base node, value re-added

	tuples := func(data []byte) [][]int64 {
		var out [][]int64
		for i := 0; i+2 < len(data); i += 3 {
			out = append(out, []int64{int64(data[i] % 8), int64(data[i+1] % 8), int64(data[i+2] % 8)})
		}
		return out
	}
	f.Fuzz(func(t *testing.T, baseB, deltaB []byte, c0, c1 uint8, two bool) {
		base := relation.MustNew("R", 3, tuples(baseB))
		// The delta toggles its tuples: present ones go, absent ones come.
		toggle := relation.MustNew("R", 3, tuples(deltaB))
		cur := base.Subtract(toggle).Union(toggle.Subtract(base))
		prefix := []int64{int64(c0 % 8)}
		if two {
			prefix = append(prefix, int64(c1%8))
		}
		for _, cols := range [][2][]int{
			{{0, 1}, {2}}, {{1, 2}, {0}}, {{0, 2}, {1}}, // two constants
			{{0}, {1, 2}}, {{1}, {2, 0}}, {{2}, {1, 0}}, // one
		} {
			if len(cols[0]) != len(prefix) {
				continue
			}
			fx := newViewFixture(t, base, cur, cols[0], cols[1])
			fx.check(t, fmt.Sprintf("consts %v=%v", cols[0], prefix), prefix, int64(c0)<<8|int64(c1))
		}
	})
}

// fuzzLevelMax bounds a decoded level: past the 64-entry charge table,
// small enough to fuzz quickly.
const fuzzLevelMax = 4096

// fuzzLevel decodes data into a strictly increasing key list anywhere in
// the int64 range. A cursor u walks the range in unsigned order (the key
// is u with its sign bit flipped, so u = 0 is MinInt64): a byte with its
// top bit set jumps u forward by 2^(b&63), saturating at MaxInt64 (or
// MaxInt64−1 when bit 6 is set too); any other byte emits a run of
// 1+8·(b&15) keys, 1+(b>>4) apart. A few bytes make thousands of keys
// that can straddle 0 and reach both extremes.
func fuzzLevel(data []byte) []int64 {
	var out []int64
	u := uint64(0)
	for _, b := range data {
		if b&0x80 != 0 {
			next := u + 1<<(b&63)
			if next < u {
				next = max(u, math.MaxUint64-uint64(b>>6&1))
			}
			u = next
			continue
		}
		stride := uint64(1 + b>>4)
		for n := 1 + 8*int(b&15); n > 0; n-- {
			if len(out) == fuzzLevelMax {
				return out
			}
			out = append(out, int64(u^signBit))
			if u > math.MaxUint64-stride {
				return out // the next key would wrap past MaxInt64
			}
			u += stride
		}
	}
	return out
}

// fuzzDenseLevel decodes data into a level the dense root index serves:
// at least denseMinKeys keys, 16 more per byte up to fuzzLevelMax, with
// gaps of 1 + b%3 cycling through data — under 3 codes a key, inside
// the density rule. The first byte places the run: from MinInt64 up, to
// MaxInt64 down, or across 0.
func fuzzDenseLevel(data []byte) []int64 {
	n := min(denseMinKeys+16*len(data), fuzzLevelMax)
	offs := make([]uint64, n)
	for i := 1; i < n; i++ {
		gap := uint64(1)
		if len(data) > 0 {
			gap += uint64(data[i%len(data)] % 3)
		}
		offs[i] = offs[i-1] + gap
	}
	var first uint64 // in the sign-flipped order fuzzLevel walks: 0 is MinInt64
	if len(data) > 0 {
		switch b := data[0]; b >> 6 {
		case 0:
			first = uint64(b & 7)
		case 1:
			first = math.MaxUint64 - offs[n-1] - uint64(b&7)
		default:
			first = signBit - offs[n-1]/2
		}
	}
	keys := make([]int64, n)
	for i, o := range offs {
		keys[i] = int64((first + o) ^ signBit)
	}
	return keys
}

// unaryRel is the unary relation over keys.
func unaryRel(keys []int64) *relation.Relation {
	tuples := make([][]int64, len(keys))
	for i, k := range keys {
		tuples[i] = []int64{k}
	}
	return relation.MustNew("S", 1, tuples)
}

// seekRef is the historical seek over one trie level of a unary trie,
// built or patched: each merge side — the base, whose dead positions are
// stepped over at one access apiece, and the overlay — is a cursor that
// refSeekLevel advances, charging sort.Search's probes.
type seekRef struct {
	base, adds []int64
	dead       map[int32]bool
	pos, apos  int32
	charges    int64
}

func (r *seekRef) skipDead() {
	for r.pos < int32(len(r.base)) && r.dead[r.pos] {
		r.pos++
		r.charges++
	}
}

// open charges what Open at the root does.
func (r *seekRef) open() {
	r.skipDead()
	r.charges++
}

func (r *seekRef) seek(v int64) {
	r.pos = refSeekLevel(r.base, r.pos, int32(len(r.base)), v, &r.charges)
	r.skipDead()
	r.apos = refSeekLevel(r.adds, r.apos, int32(len(r.adds)), v, &r.charges)
}

// key returns the least live key of the two sides, or false when both
// are exhausted.
func (r *seekRef) key() (int64, bool) {
	k, ok := int64(math.MaxInt64), false
	if r.pos < int32(len(r.base)) {
		k, ok = r.base[r.pos], true
	}
	if r.apos < int32(len(r.adds)) {
		k, ok = min(k, r.adds[r.apos]), true
	}
	return k, ok
}

// FuzzSeekGE drives SeekGE through a target sequence over a fuzzer-built
// level — as a built trie, reopened from its snapshot, and patched with
// an overlay of fuzzer-built inserts and every third key deleted — and
// holds each landing key and the flushed charges to seekRef's. Levels
// and targets both come from fuzzLevel, so seeks run past the 64-entry
// charge table, across 0 and into both ends of the int64 range. With
// dense set the level comes from fuzzDenseLevel instead, so the seeks
// read the dense root index, and the targets and inserts are moved to
// start at its least key.
func FuzzSeekGE(f *testing.F) {
	straddle := []byte{0x3f} // −64…: jumps 2^62 … 2^6 reach 2^63−64
	for e := byte(62); e >= 6; e-- {
		straddle = append([]byte{0x80 | e}, straddle...)
	}
	f.Add([]byte{}, []byte{}, []byte{0x00}, false)
	f.Add([]byte{0x0f, 0x0f, 0x0f}, []byte{0x8f, 0x01}, []byte{0x2f, 0x2f}, false)                               // runs from MinInt64, targets between keys
	f.Add(straddle, []byte{0xbf, 0x0f}, append([]byte{0x80}, straddle...), false)                                // across 0
	f.Add([]byte{0x01, 0xbf, 0x7f, 0xbf, 0x01}, []byte{0xff, 0x00}, []byte{0x00, 0xbe, 0x1f, 0xbf, 0x01}, false) // both extremes
	f.Add(slices.Repeat([]byte{0x7f}, 8), []byte{0x85, 0x1f}, []byte{0x3a, 0x8c, 0x3a, 0x8c, 0x3a}, false)       // ≈1000 keys, strides > 1
	f.Add(slices.Repeat([]byte{0x0f}, 7), []byte{}, []byte{0x0f, 0x2f}, false)                                   // 1+8·15 keys 1 apart: dense under fuzzLevel
	f.Add([]byte{0x00, 0x01, 0x02}, []byte{0x85, 0x03}, []byte{0x03, 0x83, 0x13, 0x87, 0x01}, true)              // dense from MinInt64
	f.Add([]byte{0x43, 0x02, 0x01}, []byte{0x3f}, []byte{0x8f, 0x21, 0x8a, 0x01}, true)                          // dense up to MaxInt64
	f.Add(slices.Repeat([]byte{0x81, 0x05}, 40), []byte{0x0f}, []byte{0x01, 0x8b, 0x1f}, true)                   // ≈1300 dense keys across 0

	f.Fuzz(func(t *testing.T, keysB, addsB, targetsB []byte, dense bool) {
		keys, targets, addKeys := fuzzLevel(keysB), fuzzLevel(targetsB), fuzzLevel(addsB)
		if dense {
			keys = fuzzDenseLevel(keysB)
			// fuzzLevel's runs start at MinInt64: shift them onto the level.
			shift := uint64(keys[0]) ^ signBit
			for _, s := range [][]int64{targets, addKeys} {
				for i := range s {
					s[i] = int64(uint64(s[i]) + shift)
				}
			}
			slices.Sort(addKeys)
			addKeys = slices.Compact(addKeys)
		}
		built := Build(unaryRel(keys), nil)
		if dense && built.levels[0].dense == nil {
			t.Fatalf("%d dense keys over [%d, %d] built no index", len(keys), keys[0], keys[len(keys)-1])
		}
		ls, err := built.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		opened, err := FromLevels(ls)
		if err != nil {
			t.Fatal(err)
		}
		// The overlay holds what the base lacks, as a version's inserts do.
		var adds, dels []int64
		dead := make(map[int32]bool)
		for _, k := range addKeys {
			if _, found := slices.BinarySearch(keys, k); !found {
				adds = append(adds, k)
			}
		}
		for i := 0; i < len(keys); i += 3 {
			dels = append(dels, keys[i])
			dead[int32(i)] = true
		}
		patched, err := BuildPatched(built, unaryRel(adds), unaryRel(dels), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			tr   *Trie
			ref  seekRef
		}{
			{"built", built, seekRef{base: keys}},
			{"opened", opened, seekRef{base: keys}},
			{"patched", patched, seekRef{base: keys, adds: adds, dead: dead}},
		} {
			var c stats.Counters
			it := tc.tr.NewIteratorCounters(&c)
			ref := tc.ref
			it.Open()
			ref.open()
			for _, v := range targets {
				it.SeekGE(v)
				ref.seek(v)
				want, ok := ref.key()
				if !ok {
					if !it.AtEnd() {
						t.Fatalf("%s: SeekGE(%d) = %d, reference AtEnd", tc.name, v, it.Key())
					}
					break
				}
				if it.AtEnd() {
					t.Fatalf("%s: SeekGE(%d) AtEnd, reference %d", tc.name, v, want)
				}
				if got := it.Key(); got != want {
					t.Fatalf("%s: SeekGE(%d) = %d, reference %d", tc.name, v, got, want)
				}
				ref.charges++ // Key
				it.Flush()
				if c.TrieAccesses != ref.charges {
					t.Fatalf("%s: SeekGE(%d) charged %d accesses, reference %d", tc.name, v, c.TrieAccesses, ref.charges)
				}
			}
			it.Flush()
			if c.TrieAccesses != ref.charges {
				t.Fatalf("%s: charged %d accesses, reference %d", tc.name, c.TrieAccesses, ref.charges)
			}
		}
	})
}
