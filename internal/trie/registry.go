package trie

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/relation"
	"repro/internal/stats"
)

// Registry is a concurrency-safe cache of immutable tries keyed by
// (relation, attribute order). It is the index store of a long-lived
// query engine: the first query that needs a relation indexed under some
// column permutation builds the trie once; every later query — any query
// shape, any worker — reuses it, so a warm engine answers repeated
// queries with zero trie builds. Because tries are immutable and
// iterators carry their own cursors and accounting, one resident trie
// serves any number of concurrent executions.
//
// Registries bound their resident bytes (Trie.MemoryBytes): when an
// insertion pushes the total past the budget, least-recently-used
// entries are evicted first — the paper's "any amount of available
// memory translates into memoization" premise (§3), applied to the
// indices themselves and shared across queries instead of scoped to one.
// Evicting an entry only drops the registry's reference; executions
// already holding the trie keep it alive until they finish.
//
// Registries are delta-aware: a versioned engine announces each new
// relation version's lineage with Observe, and a request for a version
// whose base index is resident is served by a copy-on-write patch
// (BuildPatched) instead of a full rebuild — O(k·depth) new nodes for a
// k-tuple delta. Superseded versions stay cached (and charged against
// the byte budget) until the engine's epoch reclamation calls Release,
// once no in-flight query can still read them.
type Registry struct {
	budget int64 // max resident bytes; 0 = unbounded

	mu           sync.Mutex
	entries      map[regKey]*regEntry
	lineage      map[*relation.Relation]relation.Version
	bytes        int64
	lru          list.List // of *regEntry; front: least recently used (next victim)
	stats        RegistryStats
	evictHook    func(rel *relation.Relation, perm string)
	opener       func(rel *relation.Relation, perm []int) *Trie
	buildHook    func(rel *relation.Relation, perm []int, t *Trie)
	buildWorkers int // goroutines per index construction (<=1: sequential)
}

// regKey identifies one cached trie: the identity of the (immutable)
// base relation plus the column permutation its levels follow. Pointer
// identity is deliberate — replacing a relation in a DB must not let a
// stale index answer for the new data.
type regKey struct {
	rel  *relation.Relation
	perm permKey
}

// permKey is a column permutation in comparable form that a lookup
// builds without allocating: cols holds column+1 per position,
// zero-padded. A permutation that does not fit — more than permKeyCols
// columns, or a column past 254 — keeps its PermSig in sig instead.
type permKey struct {
	cols [permKeyCols]uint8
	sig  string
}

const permKeyCols = 16

func makePermKey(perm []int) permKey {
	var k permKey
	if len(perm) > permKeyCols {
		return permKey{sig: PermSig(perm)}
	}
	for i, p := range perm {
		if p < 0 || p >= 0xff {
			return permKey{sig: PermSig(perm)}
		}
		k.cols[i] = uint8(p + 1)
	}
	return k
}

// String returns the PermSig of the permutation k was made from.
func (k permKey) String() string {
	if k.sig != "" {
		return k.sig
	}
	b := make([]byte, 0, permKeyCols)
	for _, c := range k.cols {
		if c == 0 {
			break
		}
		b = append(b, c-1)
	}
	return string(b)
}

type regEntry struct {
	key   regKey
	trie  *Trie
	err   error // build failure, for waiters; set before ready closes
	bytes int64
	ready chan struct{} // closed once trie (or err) is set
	elem  *list.Element // in Registry.lru
}

// RegistryStats reports a registry's lifetime activity.
type RegistryStats struct {
	// Hits and Builds count Get calls served from the registry and Get
	// calls that had to construct the trie, respectively. Patches is the
	// subset of Builds answered by a copy-on-write patch of a resident
	// base index rather than a full construction; Opens is the subset
	// answered by mapping an on-disk trie snapshot (SetOpener) — neither
	// pays a construction over the relation.
	Hits    int64 `json:"hits"`
	Builds  int64 `json:"builds"`
	Patches int64 `json:"patches"`
	Opens   int64 `json:"opens"`
	// Evictions counts entries dropped to respect the byte budget;
	// Released counts entries dropped by epoch reclamation of
	// superseded relation versions (Release).
	Evictions int64 `json:"evictions"`
	Released  int64 `json:"released"`
	// Entries and Bytes describe the current residency; Budget echoes
	// the configured bound (0 = unbounded).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget"`
}

func (s RegistryStats) String() string {
	return fmt.Sprintf("entries=%d bytes=%d budget=%d hits=%d builds=%d patches=%d opens=%d evictions=%d released=%d",
		s.Entries, s.Bytes, s.Budget, s.Hits, s.Builds, s.Patches, s.Opens, s.Evictions, s.Released)
}

// NewRegistry returns an empty registry bounded to budgetBytes resident
// trie bytes (0 = unbounded).
func NewRegistry(budgetBytes int64) *Registry {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &Registry{
		budget:  budgetBytes,
		entries: make(map[regKey]*regEntry),
		lineage: make(map[*relation.Relation]relation.Version),
	}
}

// SetEvictHook registers f to be invoked with the relation and
// column-permutation signature (PermSig) of every entry dropped by
// byte-budget eviction (not by Release — epoch reclamation is already
// coordinated by the caller). A resident engine uses it to drop exactly
// the cached plans that embed the evicted index: without that, a plan
// cache would keep budget-evicted tries alive while the registry
// reports their bytes reclaimed, and later compiles would build
// duplicates. f runs with the registry lock held and must not call
// back into the registry.
func (r *Registry) SetEvictHook(f func(rel *relation.Relation, perm string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictHook = f
}

// SetBuildWorkers bounds the goroutines each index construction may use
// (BuildParallel): <= 1 builds sequentially, < 0 uses one per core. A
// resident engine typically passes its configured per-query worker
// count, so cold index builds use the same parallelism budget as the
// joins they unblock.
func (r *Registry) SetBuildWorkers(workers int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buildWorkers = workers
}

// SetOpener registers a function consulted on every registry miss before
// any construction: it may return a ready trie over rel permuted by perm
// — in practice one reconstructed around an mmap'd on-disk snapshot — or
// nil to fall through to the patch/build paths. An open is charged as
// TrieOpens (never TrieBuilds) on the requesting counters and as Opens in
// the registry stats; the entry is cached, byte-budgeted, and evicted
// exactly like a built one. f runs without the registry lock (it does IO)
// but under the entry's singleflight, so concurrent misses on one key
// open at most once.
func (r *Registry) SetOpener(f func(rel *relation.Relation, perm []int) *Trie) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opener = f
}

// SetBuildHook registers f to observe every full (non-patched, non-opened)
// construction the registry performs, after the trie is ready but before
// waiters are released. A persistent engine uses it to write the freshly
// built index to disk (write-behind), so the next process can open instead
// of rebuild. f runs without the registry lock and must not call back into
// the registry for the same key.
func (r *Registry) SetBuildHook(f func(rel *relation.Relation, perm []int, t *Trie)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buildHook = f
}

// Observe records a relation version's lineage so later Trie requests
// for it can be served by patching the base version's resident index.
// Compacted versions (empty delta) clear any stale lineage: they are
// their own base and must be fully built once. Call it after every
// Store.ApplyDelta, before queries can see the new version.
func (r *Registry) Observe(v relation.Version) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.Patched() {
		r.lineage[v.Rel] = v
	} else {
		delete(r.lineage, v.Rel)
	}
}

// Release drops every cached index of rel (any column order) along with
// its lineage record — the reclamation step once epoch tracking proves
// no in-flight query can still read that version. Entries still being
// built are skipped: a build in flight belongs to a query that still
// pins the version, and that query's exit triggers another Release.
func (r *Registry) Release(rel *relation.Relation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.lineage, rel)
	for el := r.lru.Front(); el != nil; {
		e := el.Value.(*regEntry)
		el = el.Next()
		if e.key.rel == rel && e.trie != nil {
			r.drop(e)
			r.stats.Released++
		}
	}
}

// PermSig encodes a column permutation as a comparable signature — the
// registry's entry key component, also used by plan caches to name the
// registry entries a compiled plan embeds.
func PermSig(perm []int) string {
	b := make([]byte, len(perm))
	for i, p := range perm {
		if p > 0xff {
			// Arities beyond 255 do not occur; fall back to a verbose
			// encoding rather than colliding.
			return fmt.Sprint(perm)
		}
		b[i] = byte(p)
	}
	return string(b)
}

// Trie returns the trie over rel with columns permuted by perm, building
// and caching it on first request; it is the leapfrog.TrieSource
// implementation. Concurrent requests for the same key build once: the
// first caller constructs while the others wait on the entry. Only the
// building caller's c (may be nil) is charged the TrieBuilds increment;
// waiters and later hits pay one HashAccesses probe. The returned trie
// accounts into no default sink — executions must attach per-run
// counters via NewIteratorCounters (the leapfrog runners always do),
// which is what makes sharing it across goroutines sound.
//
// When rel is a version with Observed lineage and the base version's
// index under the same column order is resident, the miss is served by
// a copy-on-write patch of the base index (charged as TriePatches, not
// TrieBuilds) — the steady-state path of a warm engine under live
// updates. Deltas past the compaction crossover arrive with no lineage
// and fall back to one full build.
func (r *Registry) Trie(rel *relation.Relation, perm []int, c *stats.Counters) (*Trie, error) {
	key := regKey{rel: rel, perm: makePermKey(perm)}

	r.mu.Lock()
	if c != nil {
		c.HashAccesses++
	}
	if e, ok := r.entries[key]; ok {
		r.lru.MoveToBack(e.elem)
		r.stats.Hits++
		ready := e.ready
		r.mu.Unlock()
		<-ready
		if e.trie == nil {
			// The builder failed (and removed the entry); relay its error.
			return nil, e.err
		}
		return e.trie, nil
	}
	e := &regEntry{key: key, ready: make(chan struct{})}
	e.elem = r.lru.PushBack(e)
	r.entries[key] = e
	r.stats.Builds++
	lin, patchable := r.lineage[rel]
	opener, buildHook := r.opener, r.buildHook
	r.mu.Unlock()

	fail := func(err error) (*Trie, error) {
		r.mu.Lock()
		r.drop(e)
		r.mu.Unlock()
		e.err = err
		close(e.ready)
		return nil, err
	}

	var t *Trie
	patched, opened := false, false
	if opener != nil {
		if ot := opener(rel, perm); ot != nil {
			t = ot
			opened = true
			if c != nil {
				c.TrieOpens++
			}
		}
	}
	if t == nil && patchable {
		// Materialize the base index through the registry itself — a hit
		// when it is resident, one full (singleflight) build when it is
		// not, e.g. for a column order first requested after updates
		// began, or after LRU pressure evicted the base. Either way the
		// base entry then persists as the substrate later deltas patch
		// against; without this, such an order would pay a full rebuild
		// on every delta until the next compaction. The recursion is
		// depth-one: bases are compacted versions and carry no lineage
		// (the Patched check below is belt-and-braces: patches never
		// stack).
		if base, err := r.Trie(lin.Base, perm, c); err == nil && !base.Patched() {
			adds, err := lin.Adds.Permute(perm)
			if err != nil {
				return fail(err)
			}
			dels, err := lin.Dels.Permute(perm)
			if err != nil {
				return fail(err)
			}
			t, err = BuildPatched(base, adds, dels, c)
			if err != nil {
				return fail(err)
			}
			patched = true
		}
	}
	if t == nil {
		permuted, err := rel.Permute(perm)
		if err != nil {
			return fail(err)
		}
		r.mu.Lock()
		workers := r.buildWorkers
		r.mu.Unlock()
		if workers == 0 {
			workers = 1 // unset: sequential (BuildParallel reads <= 0 as per-core)
		}
		t = BuildParallel(permuted, nil, workers) // nil sink: shared across goroutines
		if c != nil {
			c.TrieBuilds++
		}
		if buildHook != nil {
			buildHook(rel, perm, t)
		}
	}

	r.mu.Lock()
	if patched {
		r.stats.Patches++
	}
	if opened {
		r.stats.Opens++
	}
	e.trie = t
	e.bytes = t.MemoryBytes()
	r.bytes += e.bytes
	if r.budget > 0 {
		r.evictTo(r.budget, e)
	}
	r.mu.Unlock()
	close(e.ready)
	return t, nil
}

// evictTo drops least-recently-used ready entries until at most limit
// bytes are resident. Entries still being built are skipped (their cost
// is unknown and a waiter holds them), as is keep — the entry just
// inserted, under the budget — so a single trie larger than the whole
// budget stays resident rather than thrashing: the engine cannot answer
// without the index, so the bound yields. Callers must hold r.mu.
func (r *Registry) evictTo(limit int64, keep *regEntry) {
	for el := r.lru.Front(); el != nil && r.bytes > limit; {
		e := el.Value.(*regEntry)
		el = el.Next()
		if e.trie != nil && e != keep {
			r.drop(e)
			r.stats.Evictions++
			if r.evictHook != nil {
				r.evictHook(e.key.rel, e.key.perm.String())
			}
		}
	}
}

// drop removes e from the registry and uncharges its bytes. Callers
// must hold r.mu.
func (r *Registry) drop(e *regEntry) {
	r.lru.Remove(e.elem)
	delete(r.entries, e.key)
	r.bytes -= e.bytes
}

// Stats returns a snapshot of the registry's activity and residency.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Entries = len(r.entries)
	s.Bytes = r.bytes
	s.Budget = r.budget
	return s
}

// Shrink evicts least-recently-used entries until at most maxBytes are
// resident — the operator's "reclaim memory now" knob, independent of
// the steady-state budget. It reports the resulting resident bytes.
func (r *Registry) Shrink(maxBytes int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictTo(max(maxBytes, 0), nil)
	return r.bytes
}
