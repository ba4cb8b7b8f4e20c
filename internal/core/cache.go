package core

import "repro/internal/stats"

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
	// Workers sets the parallelism of the *ParallelCtx entry points
	// (CountParallelCtx, EvalParallelCtx, AggregateParallelCtx): 0 uses
	// one worker per core (runtime.GOMAXPROCS), 1 is the sequential scan,
	// K > 1 shards the root variable's domain over K goroutines, each
	// with private caches and counters (merged after the join). Count,
	// Eval and Aggregate are the one-worker forms: they run the same
	// code with Workers set to 1.
	Workers int
	// BatchSize selects block-at-a-time execution (sequential, parallel
	// and streaming): the deepest level's scan advances in blocks of up
	// to BatchSize keys through the trie/frog batch primitives instead
	// of one key per recursive step. 0 (the default) keeps the scalar
	// loops. Results, tuple order and — for scans that run to completion
	// — stats.Counters are bit-identical to the scalar path (the batch
	// primitives replay the scalar charge sequence; the differential
	// harness enforces it); an early-stopped or cancelled batched scan
	// may have read ahead up to one block. Every evaluation and every
	// unit-weight fold (Count, Session.Count, Aggregate under a nil
	// VarWeight) honours it; a weighted Aggregate keeps the scalar leaf,
	// whose per-value weights leave nothing to fuse.
	BatchSize int
}

// cache is one adhesion cache (one per cacheable bag), generic over the
// stored intermediate result: int64 counts, semiring values or
// factorized sets. Entries live in an intrusive doubly linked list in
// eviction order (front = next victim); FIFO never reorders, LRU moves
// hit entries to the back.
type cache[V any] struct {
	entries map[Key]*cacheEntry[V]
	head    *cacheEntry[V] // next eviction victim
	tail    *cacheEntry[V] // most recently inserted/used
}

type cacheEntry[V any] struct {
	key        Key
	val        V
	cost       int
	prev, next *cacheEntry[V]
}

func newCache[V any]() *cache[V] {
	return &cache[V]{entries: make(map[Key]*cacheEntry[V])}
}

func (c *cache[V]) pushBack(e *cacheEntry[V]) {
	e.prev, e.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

func (c *cache[V]) unlink(e *cacheEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// touch moves a hit entry to the back (LRU refresh).
func (c *cache[V]) touch(e *cacheEntry[V]) {
	if c.tail == e {
		return
	}
	c.unlink(e)
	c.pushBack(e)
}

// manager coordinates the per-bag caches of one execution under a shared
// capacity and support policy.
type manager[V any] struct {
	policy  Policy
	caches  []*cache[V] // indexed by bag node; nil for uncacheable bags
	support []map[Key]int
	total   int // stored cost units (entries for counts, factorized entries for sets)
	c       *stats.Counters
	cost    func(V) int // capacity cost of one value
}

func newManager[V any](policy Policy, numNodes int, cacheable []bool, c *stats.Counters, cost func(V) int) *manager[V] {
	m := &manager[V]{
		policy:  policy,
		caches:  make([]*cache[V], numNodes),
		support: make([]map[Key]int, numNodes),
		c:       c,
		cost:    cost,
	}
	for v := 0; v < numNodes; v++ {
		if cacheable[v] && !policy.Disabled {
			m.caches[v] = newCache[V]()
			if policy.SupportThreshold > 0 {
				m.support[v] = make(map[Key]int)
			}
		}
	}
	return m
}

// lookup probes bag v's cache; it also bumps the support counter, so call
// it exactly once per bag entry.
func (m *manager[V]) lookup(v int, key Key) (V, bool) {
	var zero V
	ch := m.caches[v]
	if ch == nil {
		return zero, false
	}
	if m.c != nil {
		m.c.HashAccesses++
	}
	if m.support[v] != nil {
		m.support[v][key]++
		if m.c != nil {
			m.c.HashAccesses++
		}
	}
	e, ok := ch.entries[key]
	if m.c != nil {
		if ok {
			m.c.CacheHits++
		} else {
			m.c.CacheMisses++
		}
	}
	if !ok {
		return zero, false
	}
	if m.policy.Eviction == EvictLRU {
		ch.touch(e)
	}
	return e.val, true
}

// shouldCache applies the support threshold for bag v and key.
func (m *manager[V]) shouldCache(v int, key Key) bool {
	ch := m.caches[v]
	if ch == nil {
		return false
	}
	if sup := m.support[v]; sup != nil && sup[key] <= m.policy.SupportThreshold {
		return false
	}
	return true
}

// store inserts the value, evicting per policy when the shared capacity
// is exhausted. Re-inserting an existing key overwrites in place.
func (m *manager[V]) store(v int, key Key, val V) {
	ch := m.caches[v]
	if ch == nil {
		return
	}
	cost := m.costOf(val)
	if old, exists := ch.entries[key]; exists {
		m.total += cost - old.cost
		old.val = val
		old.cost = cost
		if m.policy.Eviction == EvictLRU {
			ch.touch(old)
		}
		if m.c != nil {
			m.c.HashAccesses++
			m.c.CacheInserts++
		}
		return
	}
	if m.policy.Capacity > 0 && m.total+cost > m.policy.Capacity {
		if m.policy.Eviction == EvictNone {
			return
		}
		if !m.evictUntil(m.policy.Capacity - cost) {
			return // cannot make room (value larger than capacity)
		}
	}
	e := &cacheEntry[V]{key: key, val: val, cost: cost}
	ch.entries[key] = e
	ch.pushBack(e)
	m.total += cost
	if m.c != nil {
		m.c.HashAccesses++
		m.c.CacheInserts++
	}
}

func (m *manager[V]) costOf(val V) int {
	cost := 1
	if m.cost != nil {
		cost = m.cost(val)
		if cost < 1 {
			cost = 1
		}
	}
	return cost
}

// evictUntil evicts front entries (FIFO/LRU order, round-robin across
// bags) until total <= target, reporting success.
func (m *manager[V]) evictUntil(target int) bool {
	if target < 0 {
		return false
	}
	for m.total > target {
		evicted := false
		for _, ch := range m.caches {
			if ch == nil || ch.head == nil {
				continue
			}
			victim := ch.head
			ch.unlink(victim)
			delete(ch.entries, victim.key)
			m.total -= victim.cost
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
func (m *manager[V]) Entries() int { return m.total }
