package server

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/leapfrog"
	"repro/internal/relation"
)

// DefaultPlanCacheSize is the plan cache capacity (compiled plans) when
// the config does not name one.
const DefaultPlanCacheSize = 128

// The plan cache is keyed by the canonical query text (cq.Query.String
// of the parsed query, so formatting variants of one query share an
// entry): a plan is a function of the text alone, since the serving
// planner reads the query pattern and no data, and execution-only knobs
// like workers or cache policy never enter the key. The snapshot is
// deliberately not part of it either. A plan is a shape (TD, variable
// order, cache layout — functions of the query) plus a binding (the
// tries of one snapshot), and only the binding goes stale when data
// changes: an update unbinds the entries over the touched relation, the
// next reader re-binds the kept shape to its own snapshot's tries, and
// nothing is re-planned. Shapes are dropped only when their relation
// compacts or by LRU eviction.

// olderThan reports whether version vector a is older than b in some
// component. Vectors of one relation set are totally ordered — snapshots
// are installed one at a time — so "not older" means the same snapshot
// or a later one.
func olderThan(a, b []uint64) bool {
	for i := range a {
		if a[i] < b[i] {
			return true
		}
	}
	return false
}

// PlanCacheStats reports the plan cache's lifetime activity and current
// residency, served under "plans" in GET /stats.
type PlanCacheStats struct {
	// Hits and Misses count executions served by a cached shape and
	// executions that had to compile (TD selection + plan compilation),
	// respectively. Rebinds is the subset of Hits whose cached binding was
	// missing or belonged to another snapshot, so the execution
	// re-acquired its tries first — all a read pays after an update.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Rebinds int64 `json:"rebinds"`
	// Evictions counts entries dropped to respect the capacity bound.
	// Invalidations counts entries that lost their binding eagerly, so
	// the tries it pinned could be reclaimed: unbound by an update to a
	// relation they touch or by a registry eviction of an index they
	// embed (the shape stays; the next read re-binds), or dropped whole
	// because the relation compacted.
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Size and Capacity describe the current residency (Capacity 0:
	// the cache is disabled).
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

// String renders the stats as a one-line summary for logs and CLIs.
func (s PlanCacheStats) String() string {
	return fmt.Sprintf("size=%d capacity=%d hits=%d misses=%d rebinds=%d evictions=%d invalidations=%d",
		s.Size, s.Capacity, s.Hits, s.Misses, s.Rebinds, s.Evictions, s.Invalidations)
}

// planCache is an LRU cache of compiled plans. Cached plans are stored
// with a nil counters sink; executions attach per-request accounting
// via Plan.WithCounters, so one resident plan serves any number of
// concurrent requests. Concurrent misses on one key may compile the
// same plan twice, and concurrent readers of an unbound entry may each
// re-bind it: the first to store wins and the duplicate work is benign
// and not worth a singleflight (the expensive shared part, trie
// construction, is already singleflighted by the trie registry
// underneath).
type planCache struct {
	mu          sync.Mutex
	cap         int
	entries     map[string]*planEntry
	head        *planEntry // least recently used (next victim)
	tail        *planEntry // most recently used
	hits        int64
	misses      int64
	rebinds     int64
	evicted     int64
	invalidated int64
}

type planEntry struct {
	key string
	// plan is the entry's shape and, while bound, the binding that
	// serves readers pinned to vers; otherwise it is core.Plan.Unbound.
	plan *core.Plan
	// names are the relations the plan touches, sorted; vers is the
	// version vector over them of the snapshot the binding was built at.
	// On an entry an update unbound it is that update's vector instead —
	// a floor no binding of an older snapshot may be stored under.
	names []string
	vers  []uint64
	// embedded are the shared-registry indices the binding pins (one per
	// (relation, column order) drawn when it was bound), so a registry
	// byte-budget eviction can unbind exactly the entries holding the
	// evicted index and no others.
	embedded   []leapfrog.SourceEntry
	prev, next *planEntry
}

func (e *planEntry) bound() bool { return e.plan.Instance() != nil }

// unbind releases the entry's binding and keeps its shape.
func (e *planEntry) unbind() {
	if e.bound() {
		e.plan, e.embedded = e.plan.Unbound(), nil
	}
}

// newPlanCache returns an LRU plan cache holding at most capacity
// compiled plans; capacity <= 0 returns nil (caching disabled — every
// execution compiles, the cold arm of benchmark/'s per-layer ladder).
func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{cap: capacity, entries: make(map[string]*planEntry)}
}

// get looks key up for a reader pinned to the snapshot with version
// vector vec, refreshing the entry's recency. With bound set, p is the
// resident plan and is bound to exactly that snapshot. Otherwise a
// non-nil p is the entry's shape alone — the binding is missing or
// belongs to another snapshot — and the caller re-binds it (see
// rebound). A nil p is a miss. Hits and misses are counted here so
// hit-rate accounting lives in one place.
func (pc *planCache) get(key string, vec []uint64) (p *core.Plan, bound bool) {
	if pc == nil {
		return nil, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[key]
	if !ok {
		pc.misses++
		return nil, false
	}
	pc.hits++
	if pc.tail != e {
		pc.unlink(e)
		pc.pushBack(e)
	}
	if !e.bound() {
		return e.plan, false
	}
	if !slices.Equal(e.vers, vec) {
		return e.plan.Unbound(), false
	}
	return e.plan, true
}

// put stores a freshly compiled plan, bound at version vector vec,
// evicting the least recently used entry past capacity. Re-storing an
// existing key (two requests raced on the same miss) keeps the
// incumbent. names are the relations the plan touches, sorted, as vec
// is; embedded the registry entries the binding pins.
func (pc *planCache) put(key string, p *core.Plan, names []string, vec []uint64, embedded []leapfrog.SourceEntry) {
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, ok := pc.entries[key]; ok {
		return
	}
	e := &planEntry{key: key, plan: p, names: names, vers: vec, embedded: embedded}
	pc.entries[key] = e
	pc.pushBack(e)
	for len(pc.entries) > pc.cap {
		victim := pc.head
		pc.unlink(victim)
		delete(pc.entries, victim.key)
		pc.evicted++
	}
}

// rebound records that a reader re-bound key's shape to the snapshot
// with version vector vec, and offers the result p as the entry's
// binding. It is taken only if the entry still holds that shape (it was
// not dropped, or evicted and recompiled meanwhile) and vec
// is not older than the entry's own vector: a reader pinned to a
// superseded snapshot keeps its binding to itself and never displaces a
// newer one, nor re-pins tries an update just let go. Between two
// binders of one snapshot the first wins.
func (pc *planCache) rebound(key string, p *core.Plan, vec []uint64, embedded []leapfrog.SourceEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.rebinds++
	e, ok := pc.entries[key]
	if !ok || !e.plan.SameShape(p) || olderThan(vec, e.vers) {
		return
	}
	if e.bound() && slices.Equal(vec, e.vers) {
		return
	}
	e.plan, e.vers, e.embedded = p, vec, embedded
}

// invalidateTouching is Update's sweep over the entries that reference
// relation name, whose installed version is now num. While the relation
// keeps patching its base the entries are unbound: the binding, which
// pins tries of the superseded version, is released so resident memory
// under continuous updates tracks the live snapshot, and the shape
// stays for the next reader to re-bind. Their vector advances to num,
// so a reader still pinned to the superseded snapshot cannot store its
// binding back. When the update compacted, the entries are dropped
// whole, and the next reader compiles afresh over the rebuilt indices.
func (pc *planCache) invalidateTouching(name string, num uint64, compacted bool) {
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for key, e := range pc.entries {
		i, ok := slices.BinarySearch(e.names, name)
		if !ok {
			continue
		}
		pc.invalidated++
		if compacted {
			pc.unlink(e)
			delete(pc.entries, key)
			continue
		}
		e.unbind()
		// Readers hold the vector they stored; advance a copy.
		e.vers = slices.Clone(e.vers)
		e.vers[i] = num
	}
}

// invalidateEmbedding unbinds every entry whose binding embeds the
// registry entry (rel, perm) — the trie over rel whose levels follow the
// column permutation perm (trie.PermSig). It is the registry's
// byte-budget evict hook: the binding would otherwise keep the evicted
// index alive while the registry reports its bytes reclaimed. Only
// entries pinning the evicted index re-bind (re-acquiring it through the
// registry, which rebuilds it once); entries over the same relation's
// other, still-resident orders stay bound, and no shape is lost.
// Matching is by relation identity, not name, so a binding over a newer
// version of the relation never matches an older version's eviction.
//
// Bindings over a *patched* version V2 record only {V2, perm}, so a
// budget eviction of the base entry {V1, perm} — whose level arrays
// V2's patched trie shares — leaves them bound. That is sound for the
// byte bound: the registry deliberately charges a patched entry its
// full MemoryBytes including the shared base arrays (see
// Trie.MemoryBytes), so the pinned memory stays covered by the
// resident {V2, perm} entry, and evicting *that* entry reaches these
// bindings through this hook as usual.
func (pc *planCache) invalidateEmbedding(rel *relation.Relation, perm string) {
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, e := range pc.entries {
		for _, emb := range e.embedded {
			if emb.Rel == rel && emb.Perm == perm {
				e.unbind()
				pc.invalidated++
				break
			}
		}
	}
}

func (pc *planCache) stats() PlanCacheStats {
	if pc == nil {
		return PlanCacheStats{}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:          pc.hits,
		Misses:        pc.misses,
		Rebinds:       pc.rebinds,
		Evictions:     pc.evicted,
		Invalidations: pc.invalidated,
		Size:          len(pc.entries),
		Capacity:      pc.cap,
	}
}

func (pc *planCache) pushBack(e *planEntry) {
	e.prev, e.next = pc.tail, nil
	if pc.tail != nil {
		pc.tail.next = e
	} else {
		pc.head = e
	}
	pc.tail = e
}

func (pc *planCache) unlink(e *planEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		pc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		pc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
