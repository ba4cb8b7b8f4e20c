package core

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// MaxKeyDim is the largest adhesion cardinality the caches index. The
// paper's caches support up to two dimensions (§5.1); we allow four.
// Bags whose adhesion is wider are simply never cached, exactly as the
// paper leaves wide-relation caching to future work.
const MaxKeyDim = 4

// Key is a fixed-width adhesion assignment; unused positions stay zero
// and the adhesion width is fixed per cache, so keys never collide.
type Key [MaxKeyDim]int64

// EvictionMode selects the behaviour of a full cache. The paper notes
// "the algorithm allows for arbitrary replacements or deletions from the
// cache" (§3.4); these are the deterministic policies provided.
type EvictionMode int

const (
	// EvictFIFO replaces the oldest-inserted entry (the default).
	EvictFIFO EvictionMode = iota
	// EvictNone rejects new insertions once the capacity is reached.
	EvictNone
	// EvictLRU replaces the least-recently-used entry (hits refresh).
	EvictLRU
)

// Policy configures CLFTJ's caching decisions (§3.4, §5.3.3).
type Policy struct {
	// Capacity bounds the total number of cached intermediate results
	// across all adhesion caches; 0 means unbounded. For evaluation,
	// factorized entries count individually.
	Capacity int
	// SupportThreshold caches an adhesion assignment only once it has
	// been encountered more than this many times (the paper's "support
	// larger than a threshold"); 0 caches on first sight.
	SupportThreshold int
	// Eviction selects full-cache behaviour.
	Eviction EvictionMode
	// Disabled turns all caching off; CLFTJ then coincides with LFTJ.
	Disabled bool
	// Workers sets the parallelism of the folds (CountParallelCtx,
	// AggregateParallelCtx): 0 uses one worker per core
	// (runtime.GOMAXPROCS), 1 is the sequential scan, K > 1 shards the
	// root variable's domain over K goroutines, each with private caches
	// and counters (merged after the join). Count and Aggregate are the
	// one-worker forms: they run the same code with Workers set to 1. An
	// enumeration (Eval, EvalParallelCtx, EvalLimitCtx) runs on one
	// worker and ignores it.
	Workers int
}

// table is one adhesion cache (one per cacheable bag), generic over the
// stored intermediate result: int64 counts, semiring values or
// factorized sets. It is flat: an open-addressed, linearly probed index
// of slot refs over a slab of slots, with the eviction list (head = next
// victim; FIFO never reorders, LRU moves hit slots to the back) and the
// free list threaded through the slab as refs. A ref is a slab position
// plus one, so 0 is "none" and the zero table is a valid empty one; slab
// positions never move, so a ref stays good across rehashes, evictions
// of other keys and slab growth. The hash and the key comparison read
// only the bag's adhesion width of the Key.
type table[V any] struct {
	on         bool    // the bag is cached under the bound plan and policy
	width      int     // adhesion width: the Key positions hashed and compared
	index      []int32 // cell -> slot ref, 0 = empty; a power of two long once the table is on
	slab       []slot[V]
	live       int   // slots the index refers to (stored and seen-only)
	head, tail int32 // eviction list of the stored slots
	free       int32 // recycled slots, linked through next
	last       int32 // the slot the latest lookup resolved; 0 = none
}

// slot is one adhesion assignment's state: its support count and, once
// cost > 0, its cached value. A slot with cost 0 is seen-only: the key
// has been probed but holds nothing (yet, or any more).
type slot[V any] struct {
	key        Key
	val        V
	cost       int   // capacity units val occupies; 0 = nothing stored
	cell       int32 // the index cell referring to this slot; -1 once freed
	support    int32 // sightings, saturating; counted under a support threshold only
	prev, next int32
}

const (
	minIndexCells = 64
	// maxPooledSlots is the slab size past which a released table is
	// dropped rather than pooled, so one huge query does not pin its
	// peak in the pool (or make every later reset pay for it).
	maxPooledSlots = 1 << 16
)

// hashSeed is drawn per process so that crafted vertex ids cannot be
// lined up into one probe chain. The second word is the multiplier.
var hashSeed = [2]uint64{rand.Uint64(), rand.Uint64() | 1}

func (t *table[V]) hash(key *Key) uint32 {
	h := hashSeed[0]
	for i := 0; i < t.width; i++ {
		hi, lo := bits.Mul64(h^uint64(key[i]), hashSeed[1])
		h = hi ^ lo
	}
	return uint32(h)
}

func (t *table[V]) match(a, b *Key) bool {
	for i := 0; i < t.width; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probe returns the ref of key's slot, claiming a seen-only one when the
// key has none — the one index probe of a bag visit. The index is never
// more than half full, so a walk always ends on an empty cell.
func (t *table[V]) probe(key *Key) int32 {
	h := t.hash(key)
	for {
		mask := uint32(len(t.index) - 1)
		c := h & mask
		for ; t.index[c] != 0; c = (c + 1) & mask {
			if ref := t.index[c]; t.match(&t.slab[ref-1].key, key) {
				return ref
			}
		}
		if 2*t.live >= len(t.index) {
			t.grow()
			continue
		}
		ref := t.free
		if ref != 0 {
			t.free = t.slab[ref-1].next
		} else {
			t.slab = append(t.slab, slot[V]{})
			ref = int32(len(t.slab))
		}
		t.slab[ref-1] = slot[V]{key: *key, cell: int32(c)}
		t.index[c] = ref
		t.live++
		return ref
	}
}

// grow doubles the index.
func (t *table[V]) grow() {
	old := t.index
	t.index = make([]int32, 2*len(old))
	mask := uint32(len(t.index) - 1)
	for _, ref := range old {
		if ref == 0 {
			continue
		}
		s := &t.slab[ref-1]
		c := t.hash(&s.key) & mask
		for t.index[c] != 0 {
			c = (c + 1) & mask
		}
		t.index[c] = ref
		s.cell = int32(c)
	}
}

// drop removes a slot from the index and recycles it. There are no
// tombstones: the rest of the probe run shifts back over the hole, each
// slot moving only if the hole is not before its home cell.
func (t *table[V]) drop(ref int32) {
	mask := uint32(len(t.index) - 1)
	hole := uint32(t.slab[ref-1].cell)
	for c := (hole + 1) & mask; t.index[c] != 0; c = (c + 1) & mask {
		s := &t.slab[t.index[c]-1]
		if home := t.hash(&s.key) & mask; (c-home)&mask >= (c-hole)&mask {
			t.index[hole] = t.index[c]
			s.cell = int32(hole)
			hole = c
		}
	}
	t.index[hole] = 0
	t.slab[ref-1] = slot[V]{cell: -1, next: t.free}
	t.free = ref
	t.live--
}

func (t *table[V]) pushBack(ref int32) {
	s := &t.slab[ref-1]
	s.prev, s.next = t.tail, 0
	if t.tail != 0 {
		t.slab[t.tail-1].next = ref
	} else {
		t.head = ref
	}
	t.tail = ref
}

func (t *table[V]) unlink(ref int32) {
	s := &t.slab[ref-1]
	if s.prev != 0 {
		t.slab[s.prev-1].next = s.next
	} else {
		t.head = s.next
	}
	if s.next != 0 {
		t.slab[s.next-1].prev = s.prev
	} else {
		t.tail = s.prev
	}
	s.prev, s.next = 0, 0
}

// reset clears the table for the pool, keeping its memory unless the
// slab outgrew maxPooledSlots. Clearing the slab is what lets go of the
// factorized sets it pointed to. A run that used a small part of a large
// index clears just the cells it filled.
func (t *table[V]) reset() {
	if cap(t.slab) > maxPooledSlots {
		*t = table[V]{}
		return
	}
	if 16*len(t.slab) < len(t.index) {
		for i := range t.slab {
			if c := t.slab[i].cell; c >= 0 {
				t.index[c] = 0
			}
		}
	} else {
		clear(t.index)
	}
	clear(t.slab)
	*t = table[V]{index: t.index, slab: t.slab[:0]}
}

// manager coordinates the per-bag tables of one execution under a shared
// capacity and support policy. The stats it charges are the paper's
// model — one hash access per cache probe, per support count and per
// insert — not the physical probes of the tables.
type manager[V any] struct {
	policy Policy
	tables []table[V] // indexed by bag node; off for uncacheable bags
	total  int        // stored cost units (entries for counts, factorized entries for sets)
	c      *stats.Counters
	cost   func(V) int    // capacity cost of one value; nil costs 1
	seen   []atomic.Int32 // the bound plan's slotsSeen, raised at release
}

// managerPools holds one sync.Pool of *manager[V] per instantiation,
// keyed by V's reflect.Type (package-level variables cannot be generic).
var managerPools sync.Map

func managerPool[V any]() *sync.Pool {
	key := reflect.TypeFor[V]()
	if p, ok := managerPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := managerPools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// acquireManager takes a manager from the pool and binds it to the
// plan's cacheable bags, or returns nil when nothing would ever be
// cached: the policy disables caching or the plan has no cacheable bag
// (Entries and release accept the nil manager; executors probe only a
// non-nil one). The owner hands it back with release.
func acquireManager[V any](policy Policy, p *Plan, c *stats.Counters, cost func(V) int) *manager[V] {
	if policy.Disabled || !slices.Contains(p.cacheable, true) {
		return nil
	}
	m, _ := managerPool[V]().Get().(*manager[V])
	if m == nil {
		m = new(manager[V])
	}
	m.policy, m.c, m.cost, m.seen = policy, c, cost, p.slotsSeen
	m.tables = m.tables[:cap(m.tables)]
	if n := p.numNodes - len(m.tables); n > 0 {
		m.tables = append(m.tables, make([]table[V], n)...)
	}
	m.tables = m.tables[:p.numNodes]
	for v := range m.tables {
		t := &m.tables[v]
		t.on, t.width = p.cacheable[v], len(p.adhesionDepths[v])
		if !t.on {
			continue
		}
		// The table is empty here, so one too small for the plan is
		// replaced, not left to grow: a pooled manager serves plans of
		// every size, and append's way from a small plan's slab to a large
		// plan's allocates several times the large one.
		if slots := m.expectedSlots(v); t.index == nil || cap(t.slab) < slots {
			t.alloc(slots)
		}
	}
	return m
}

// expectedSlots is how many slots bag v's table held at most when the
// plan ran before, less what the policy's capacity rules out now (a
// bounded run holds one slot per stored unit at most, and the one a
// probe claims before its store evicts; support counts are kept beside
// the capacity). 0 when the plan has not run.
func (m *manager[V]) expectedSlots(v int) int {
	n := int(m.seen[v].Load())
	if m.policy.Capacity > 0 && m.policy.SupportThreshold <= 0 {
		n = min(n, m.policy.Capacity+1)
	}
	return n
}

// alloc gives an empty table a fresh index and slab with room for slots
// without growing: a manager the pool no longer holds then costs the
// plan's working set once and not the growth steps on the way there.
func (t *table[V]) alloc(slots int) {
	cells := minIndexCells
	for cells <= 2*slots {
		cells *= 2
	}
	t.index = make([]int32, cells)
	if slots > 0 {
		t.slab = make([]slot[V], 0, slots)
	}
}

// release clears the manager and returns it to the pool. Tables beyond
// the bound plan's bags are already empty: every release resets all it
// bound.
func (m *manager[V]) release() {
	if m == nil {
		return
	}
	for v := range m.tables {
		t := &m.tables[v]
		// Not an atomic max: a worker's larger count lost to a sibling's
		// costs the next run a few growth steps and is raised then.
		if n := int32(len(t.slab)); n > m.seen[v].Load() {
			m.seen[v].Store(n)
		}
		t.reset()
	}
	m.total, m.c, m.cost, m.seen = 0, nil, nil, nil
	managerPool[V]().Put(m)
}

// lookup probes bag v's table; it also bumps the support counter, so call
// it exactly once per bag entry. A miss returns the ref of the key's
// slot, which shouldCache and store take in place of a second probe; it
// stays good until the value is stored or the manager released.
//
// A bag entered once per assignment of variables outside its adhesion
// probes the key it probed last over and over, so the slot the previous
// lookup resolved is checked before the index: while it is live (a
// freed slot has cell -1) and holds key, it is key's slot, whatever was
// evicted, dropped, recycled or rehashed in between. Only the physical
// walk is skipped; the charges, support count and LRU refresh are the
// probe's either way.
func (m *manager[V]) lookup(v int, key *Key) (val V, ref int32, ok bool) {
	t := &m.tables[v]
	if !t.on {
		return val, 0, false
	}
	if ref = t.last; ref == 0 || t.slab[ref-1].cell < 0 || !t.match(&t.slab[ref-1].key, key) {
		ref = t.probe(key)
		t.last = ref
	}
	s := &t.slab[ref-1]
	if m.policy.SupportThreshold > 0 && s.support < math.MaxInt32 {
		s.support++
	}
	ok = s.cost > 0
	if c := m.c; c != nil {
		c.HashAccesses++
		if m.policy.SupportThreshold > 0 {
			c.HashAccesses++
		}
		if ok {
			c.CacheHits++
		} else {
			c.CacheMisses++
		}
	}
	if !ok {
		return val, ref, false
	}
	if m.policy.Eviction == EvictLRU && t.tail != ref {
		// LRU refresh: a hit slot moves to the back.
		t.unlink(ref)
		t.pushBack(ref)
	}
	return s.val, 0, true
}

// shouldCache applies the support threshold to the slot of a missed key.
func (m *manager[V]) shouldCache(v int, ref int32) bool {
	if ref == 0 {
		return false
	}
	return m.policy.SupportThreshold <= 0 || int(m.tables[v].slab[ref-1].support) > m.policy.SupportThreshold
}

// store puts the value into the slot a lookup missed on, evicting per
// policy when the shared capacity is exhausted. Both executors store at
// most once per miss, so the slot is never already occupied.
func (m *manager[V]) store(v int, ref int32, val V) {
	if ref == 0 {
		return
	}
	t := &m.tables[v]
	cost := 1
	if m.cost != nil {
		cost = max(m.cost(val), 1)
	}
	if m.policy.Capacity > 0 && m.total+cost > m.policy.Capacity {
		// EvictNone rejects; so does a value larger than the capacity.
		if m.policy.Eviction == EvictNone || !m.evictUntil(m.policy.Capacity-cost) {
			m.vacate(t, ref)
			return
		}
	}
	s := &t.slab[ref-1]
	s.val, s.cost = val, cost
	t.pushBack(ref)
	m.total += cost
	if m.c != nil {
		m.c.HashAccesses++
		m.c.CacheInserts++
	}
}

// vacate clears a slot that lost its value or never got one. Under a
// support threshold it stays behind as the key's seen-only count —
// support is not charged against Capacity and is never evicted —
// otherwise it leaves the table.
func (m *manager[V]) vacate(t *table[V], ref int32) {
	if m.policy.SupportThreshold <= 0 {
		t.drop(ref)
		return
	}
	var zero V
	s := &t.slab[ref-1]
	s.val, s.cost = zero, 0
}

// evictUntil evicts front entries (FIFO/LRU order, round-robin across
// bags) until total <= target, reporting success.
func (m *manager[V]) evictUntil(target int) bool {
	if target < 0 {
		return false
	}
	for m.total > target {
		evicted := false
		for v := range m.tables {
			t := &m.tables[v]
			victim := t.head
			if victim == 0 {
				continue
			}
			t.unlink(victim)
			m.total -= t.slab[victim-1].cost
			m.vacate(t, victim)
			if m.c != nil {
				m.c.CacheEvictions++
			}
			evicted = true
			if m.total <= target {
				return true
			}
		}
		if !evicted {
			return false
		}
	}
	return true
}

// Entries returns the number of stored cost units (for tests and stats).
func (m *manager[V]) Entries() int {
	if m == nil {
		return 0
	}
	return m.total
}
