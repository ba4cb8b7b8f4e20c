package trie

import (
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

func regTestRel(t *testing.T, name string, n int) *relation.Relation {
	t.Helper()
	tuples := make([][]int64, 0, n)
	for i := 0; i < n; i++ {
		tuples = append(tuples, []int64{int64(i), int64((i * 7) % n)})
	}
	return relation.MustNew(name, 2, tuples)
}

func TestRegistryHitAvoidsRebuild(t *testing.T) {
	r := NewRegistry(0)
	rel := regTestRel(t, "E", 50)

	var c1 stats.Counters
	t1, err := r.Trie(rel, []int{0, 1}, &c1)
	if err != nil {
		t.Fatal(err)
	}
	if c1.TrieBuilds != 1 {
		t.Fatalf("first Get: TrieBuilds = %d, want 1", c1.TrieBuilds)
	}

	var c2 stats.Counters
	t2, err := r.Trie(rel, []int{0, 1}, &c2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.TrieBuilds != 0 {
		t.Fatalf("second Get: TrieBuilds = %d, want 0", c2.TrieBuilds)
	}
	if t1 != t2 {
		t.Fatal("second Get returned a different trie")
	}

	// A different attribute order is a different index.
	var c3 stats.Counters
	t3, err := r.Trie(rel, []int{1, 0}, &c3)
	if err != nil {
		t.Fatal(err)
	}
	if c3.TrieBuilds != 1 {
		t.Fatalf("permuted Get: TrieBuilds = %d, want 1", c3.TrieBuilds)
	}
	if t3 == t1 {
		t.Fatal("permuted order returned the same trie")
	}

	s := r.Stats()
	if s.Builds != 2 || s.Hits != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want builds=2 hits=1 entries=2", s)
	}
}

// TestRegistryHitAllocs pins that a registry hit builds no key: a plan
// re-bind looks up every atom's index, and each PermSig string was two
// allocations of it.
func TestRegistryHitAllocs(t *testing.T) {
	r := NewRegistry(0)
	rel := regTestRel(t, "E", 20)
	perm := []int{1, 0}
	if _, err := r.Trie(rel, perm, nil); err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	if n := testing.AllocsPerRun(100, func() { r.Trie(rel, perm, &c) }); n != 0 {
		t.Fatalf("registry hit: %v allocs, want 0", n)
	}
}

// TestPermKey checks the registry's permutation key against PermSig:
// distinct permutations get distinct keys — the fixed-size form and the
// verbose fallback alike — and each key names its PermSig for the evict
// hook.
func TestPermKey(t *testing.T) {
	long := make([]int, permKeyCols+1)
	for i := range long {
		long[i] = len(long) - 1 - i
	}
	perms := [][]int{{}, {0}, {1}, {0, 1}, {1, 0}, {2, 0, 1}, {0, 254}, {0, 255}, {0, 300}, long, long[1:]}
	seen := make(map[permKey][]int)
	for _, p := range perms {
		k := makePermKey(p)
		if q, dup := seen[k]; dup {
			t.Fatalf("perms %v and %v share a key", q, p)
		}
		seen[k] = p
		if got, want := k.String(), PermSig(p); got != want {
			t.Fatalf("perm %v: key names %q, PermSig %q", p, got, want)
		}
	}
}

func TestRegistryKeyedByRelationIdentity(t *testing.T) {
	r := NewRegistry(0)
	a := regTestRel(t, "E", 30)
	b := regTestRel(t, "E", 30) // equal contents, distinct value

	ta, err := r.Trie(a, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := r.Trie(b, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ta == tb {
		t.Fatal("distinct relation values shared one cached trie")
	}
}

func TestRegistryBudgetEvictsLRU(t *testing.T) {
	rel := regTestRel(t, "E", 100)
	one, err := NewRegistry(0).Trie(rel, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	per := one.MemoryBytes()

	// Room for two tries; the third insertion evicts the least recently
	// used of the first two.
	r := NewRegistry(2 * per)
	rels := []*relation.Relation{
		regTestRel(t, "A", 100), regTestRel(t, "B", 100), regTestRel(t, "C", 100),
	}
	for _, x := range rels[:2] {
		if _, err := r.Trie(x, []int{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A so B becomes the LRU victim.
	if _, err := r.Trie(rels[0], []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Trie(rels[2], []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}

	s := r.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want evictions=1 entries=2", s)
	}
	var c stats.Counters
	if _, err := r.Trie(rels[0], []int{0, 1}, &c); err != nil {
		t.Fatal(err)
	}
	if c.TrieBuilds != 0 {
		t.Fatal("A was evicted, want B (LRU)")
	}
	if _, err := r.Trie(rels[1], []int{0, 1}, &c); err != nil {
		t.Fatal(err)
	}
	if c.TrieBuilds != 1 {
		t.Fatal("B was retained, want it evicted as LRU")
	}
}

func TestRegistryOversizedEntryStaysResident(t *testing.T) {
	r := NewRegistry(1) // smaller than any trie
	rel := regTestRel(t, "E", 50)
	tr, err := r.Trie(rel, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("nil trie")
	}
	if s := r.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want the oversized entry resident", s.Entries)
	}
}

func TestRegistryShrink(t *testing.T) {
	r := NewRegistry(0)
	for _, name := range []string{"A", "B", "C"} {
		if _, err := r.Trie(regTestRel(t, name, 60), []int{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Shrink(0); got != 0 {
		t.Fatalf("Shrink(0) left %d bytes", got)
	}
	if s := r.Stats(); s.Entries != 0 || s.Evictions != 3 {
		t.Fatalf("stats after shrink = %+v", s)
	}
}

func TestRegistryBadPermutation(t *testing.T) {
	r := NewRegistry(0)
	rel := regTestRel(t, "E", 10)
	if _, err := r.Trie(rel, []int{0, 5}, nil); err == nil {
		t.Fatal("want error for invalid permutation")
	}
	// The failed entry must not poison the key.
	if _, err := r.Trie(rel, []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryConcurrentGet hammers one registry from many goroutines;
// under -race it verifies the locking, and the per-key build counts
// verify the singleflight behaviour (each key built exactly once).
func TestRegistryConcurrentGet(t *testing.T) {
	r := NewRegistry(0)
	rels := []*relation.Relation{
		regTestRel(t, "A", 80), regTestRel(t, "B", 80), regTestRel(t, "C", 80),
	}
	perms := [][]int{{0, 1}, {1, 0}}

	const goroutines = 32
	var wg sync.WaitGroup
	got := make([][]*Trie, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c stats.Counters
			for round := 0; round < 20; round++ {
				for _, rel := range rels {
					for _, p := range perms {
						tr, err := r.Trie(rel, p, &c)
						if err != nil {
							t.Error(err)
							return
						}
						got[g] = append(got[g], tr)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	s := r.Stats()
	if want := int64(len(rels) * len(perms)); s.Builds != want {
		t.Fatalf("builds = %d, want %d (one per key)", s.Builds, want)
	}
	// Every goroutine must have observed the same trie per key slot.
	for g := 1; g < goroutines; g++ {
		for i := range got[0] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d slot %d saw a different trie", g, i)
			}
		}
	}
}

// storeVersions advances a Store and returns the version after applying
// the delta, observed by the registry as an engine would.
func applyObserved(t *testing.T, s *relation.Store, r *Registry, ins, del [][]int64) relation.Version {
	t.Helper()
	v, changed, err := s.ApplyDelta(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("delta was a no-op")
	}
	r.Observe(v)
	return v
}

func TestRegistryPatchedBuild(t *testing.T) {
	r := NewRegistry(0)
	base := regTestRel(t, "E", 60)
	s := relation.NewStore(base)

	// Warm the base index under both orders.
	if _, err := r.Trie(base, []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Trie(base, []int{1, 0}, nil); err != nil {
		t.Fatal(err)
	}

	v := applyObserved(t, s, r, [][]int64{{101, 5}, {102, 6}}, [][]int64{{0, 0}})
	if !v.Patched() {
		t.Fatalf("small delta compacted: %+v", v)
	}

	var c stats.Counters
	pt, err := r.Trie(v.Rel, []int{1, 0}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if c.TrieBuilds != 0 || c.TriePatches != 1 {
		t.Fatalf("counters = builds %d patches %d, want 0/1", c.TrieBuilds, c.TriePatches)
	}
	if !pt.Patched() {
		t.Fatal("warm-version index is not a patch")
	}
	// The patched index answers exactly like a fresh build.
	perm, err := v.Rel.Permute([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !equalTuples(enumerate(pt), enumerate(Build(perm, nil))) {
		t.Fatal("patched index enumeration differs from fresh build")
	}
	s2 := r.Stats()
	if s2.Patches != 1 {
		t.Fatalf("registry stats patches = %d, want 1", s2.Patches)
	}

	// A column order first requested after updates began finds no
	// resident base: the registry materializes the base once (a real
	// build, charged to this query) and still patches — so later deltas
	// on that order patch with zero further builds instead of paying a
	// full rebuild per delta.
	var c2 stats.Counters
	coldBase := regTestRel(t, "R", 10)
	s3 := relation.NewStore(coldBase)
	s3.SetCompactFraction(10)
	v3 := applyObserved(t, s3, r, [][]int64{{99, 99}}, nil)
	if _, err := r.Trie(v3.Rel, []int{0, 1}, &c2); err != nil {
		t.Fatal(err)
	}
	if c2.TrieBuilds != 1 || c2.TriePatches != 1 {
		t.Fatalf("cold-base counters = builds %d patches %d, want 1/1 (base materialized, then patched)", c2.TrieBuilds, c2.TriePatches)
	}
	v4 := applyObserved(t, s3, r, [][]int64{{98, 98}}, nil)
	var c3 stats.Counters
	if _, err := r.Trie(v4.Rel, []int{0, 1}, &c3); err != nil {
		t.Fatal(err)
	}
	if c3.TrieBuilds != 0 || c3.TriePatches != 1 {
		t.Fatalf("follow-up delta on cold order: builds %d patches %d, want 0/1", c3.TrieBuilds, c3.TriePatches)
	}
}

func TestRegistryCompactedVersionFullBuild(t *testing.T) {
	r := NewRegistry(0)
	base := regTestRel(t, "E", 8)
	s := relation.NewStore(base) // crossover: 2 tuples on an 8-tuple base
	if _, err := r.Trie(base, []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	ins := [][]int64{{50, 1}, {51, 1}, {52, 1}}
	v := applyObserved(t, s, r, ins, nil)
	if v.Patched() {
		t.Fatalf("crossover delta did not compact: %+v", v)
	}
	var c stats.Counters
	ft, err := r.Trie(v.Rel, []int{0, 1}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if c.TrieBuilds != 1 || c.TriePatches != 0 || ft.Patched() {
		t.Fatalf("compacted version: builds %d patches %d patched=%v, want full build", c.TrieBuilds, c.TriePatches, ft.Patched())
	}
}

func TestRegistryRelease(t *testing.T) {
	r := NewRegistry(0)
	base := regTestRel(t, "E", 40)
	s := relation.NewStore(base)
	if _, err := r.Trie(base, []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	v := applyObserved(t, s, r, [][]int64{{90, 90}}, nil)
	if _, err := r.Trie(v.Rel, []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	if before.Entries != 2 {
		t.Fatalf("entries = %d, want 2", before.Entries)
	}

	r.Release(base)
	after := r.Stats()
	if after.Entries != 1 || after.Released != 1 {
		t.Fatalf("after release: %+v, want entries=1 released=1", after)
	}
	if after.Bytes >= before.Bytes {
		t.Fatalf("release did not shrink bytes: %d -> %d", before.Bytes, after.Bytes)
	}
	// The surviving version still answers (its patch holds the base
	// arrays alive even though the registry dropped its reference).
	var c stats.Counters
	if _, err := r.Trie(v.Rel, []int{0, 1}, &c); err != nil {
		t.Fatal(err)
	}
	if c.TrieBuilds+c.TriePatches != 0 {
		t.Fatal("released base evicted the surviving version's entry")
	}
}
