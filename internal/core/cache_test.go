package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/factorized"
	"repro/internal/stats"
)

// tablePlan is the part of a Plan a cache manager binds to: one bag per
// width, cacheable unless the width is negative.
func tablePlan(widths ...int) *Plan {
	p := &Plan{shape: shape{
		numNodes:       len(widths),
		cacheable:      make([]bool, len(widths)),
		adhesionDepths: make([][]int, len(widths)),
		slotsSeen:      make([]atomic.Int32, len(widths)),
	}}
	for v, w := range widths {
		if p.cacheable[v] = w >= 0; w > 0 {
			p.adhesionDepths[v] = make([]int, w)
		}
	}
	return p
}

func newTestManager(p Policy, nodes int) *manager[int64] {
	widths := make([]int, nodes)
	for i := range widths {
		widths[i] = 1
	}
	return acquireManager[int64](p, tablePlan(widths...), nil, nil)
}

func key(vals ...int64) Key {
	var k Key
	copy(k[:], vals)
	return k
}

// put is one bag visit as the executors make it: probe, and on a miss
// store the value into the missed slot if the policy agrees.
func put[V any](m *manager[V], v int, k Key, val V) {
	if _, slot, ok := m.lookup(v, &k); !ok && m.shouldCache(v, slot) {
		m.store(v, slot, val)
	}
}

func get[V any](m *manager[V], v int, k Key) (V, bool) {
	val, _, ok := m.lookup(v, &k)
	return val, ok
}

func TestManagerStoreLookup(t *testing.T) {
	m := newTestManager(Policy{}, 2)
	if _, ok := get(m, 0, key(1)); ok {
		t.Fatal("lookup hit on empty cache")
	}
	put(m, 0, key(1), 42)
	if v, ok := get(m, 0, key(1)); !ok || v != 42 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	// Caches are per bag.
	if _, ok := get(m, 1, key(1)); ok {
		t.Fatal("bag 1 sees bag 0's entry")
	}
	if m.Entries() != 1 {
		t.Fatalf("Entries = %d", m.Entries())
	}
}

func TestManagerCapacityFIFO(t *testing.T) {
	m := newTestManager(Policy{Capacity: 2, Eviction: EvictFIFO}, 1)
	put(m, 0, key(1), 1)
	put(m, 0, key(2), 2)
	put(m, 0, key(3), 3) // evicts key(1)
	if m.Entries() != 2 {
		t.Fatalf("Entries = %d, want 2", m.Entries())
	}
	if _, ok := get(m, 0, key(1)); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := get(m, 0, key(3)); !ok {
		t.Fatal("newest entry missing")
	}
}

func TestManagerCapacityLRU(t *testing.T) {
	m := newTestManager(Policy{Capacity: 2, Eviction: EvictLRU}, 1)
	put(m, 0, key(1), 1)
	put(m, 0, key(2), 2)
	// Touch key(1): key(2) becomes the LRU victim.
	if _, ok := get(m, 0, key(1)); !ok {
		t.Fatal("lookup miss")
	}
	put(m, 0, key(3), 3)
	if _, ok := get(m, 0, key(2)); ok {
		t.Fatal("LRU victim key(2) survived")
	}
	if _, ok := get(m, 0, key(1)); !ok {
		t.Fatal("recently used key(1) evicted")
	}
	if _, ok := get(m, 0, key(3)); !ok {
		t.Fatal("new key(3) missing")
	}
}

func TestManagerLRUVsFIFODiffer(t *testing.T) {
	// Same access pattern; FIFO evicts the touched key, LRU keeps it.
	fifo := newTestManager(Policy{Capacity: 2, Eviction: EvictFIFO}, 1)
	put(fifo, 0, key(1), 1)
	put(fifo, 0, key(2), 2)
	get(fifo, 0, key(1))
	put(fifo, 0, key(3), 3)
	if _, ok := get(fifo, 0, key(1)); ok {
		t.Fatal("FIFO kept the oldest entry")
	}
}

func TestManagerCapacityRejectNew(t *testing.T) {
	m := newTestManager(Policy{Capacity: 2, Eviction: EvictNone}, 1)
	put(m, 0, key(1), 1)
	put(m, 0, key(2), 2)
	put(m, 0, key(3), 3) // rejected
	// A rejected key leaves no slot behind when no support is counted.
	if live := m.tables[0].live; live != 2 {
		t.Fatalf("table holds %d slots for 2 entries", live)
	}
	if _, ok := get(m, 0, key(3)); ok {
		t.Fatal("entry inserted beyond capacity with EvictNone")
	}
	if _, ok := get(m, 0, key(1)); !ok {
		t.Fatal("existing entry lost with EvictNone")
	}
}

func TestManagerSupportThreshold(t *testing.T) {
	m := newTestManager(Policy{SupportThreshold: 2}, 1)
	// First and second sightings: below support.
	for sighting, want := range []bool{false, false, true} {
		k := key(7)
		_, slot, _ := m.lookup(0, &k)
		if got := m.shouldCache(0, slot); got != want {
			t.Fatalf("shouldCache after %d sightings with threshold 2 = %v", sighting+1, got)
		}
	}
}

// TestManagerSupportOutlivesEviction: support counts are not charged
// against Capacity and are never evicted — an evicted key's slot stays
// behind seen-only, so its next visit re-caches at once.
func TestManagerSupportOutlivesEviction(t *testing.T) {
	m := newTestManager(Policy{SupportThreshold: 1, Capacity: 1}, 1)
	get(m, 0, key(1))
	put(m, 0, key(1), 10) // second sighting: cached
	get(m, 0, key(2))
	put(m, 0, key(2), 20) // evicts key(1)
	if _, ok := get(m, 0, key(2)); !ok || m.Entries() != 1 {
		t.Fatalf("key(2) not resident alone (Entries = %d)", m.Entries())
	}
	k := key(1)
	_, slot, ok := m.lookup(0, &k)
	if ok || !m.shouldCache(0, slot) {
		t.Fatalf("evicted key(1): hit = %v, shouldCache = %v; want a miss that re-caches", ok, m.shouldCache(0, slot))
	}
	if live := m.tables[0].live; live != 2 {
		t.Fatalf("table holds %d slots, want the entry and the seen-only one", live)
	}
}

// TestManagerReprobeAfterEviction: a bag's key whose slot went away
// between two probes — evicted by another bag's store under the shared
// capacity, by an explicit evictUntil(0), refused by
// EvictNone, or reset by a pool round trip — misses on the re-probe and
// charges exactly a hashed probe's miss, even though the table still
// remembers the slot its last lookup resolved. Under a support threshold
// the evicted key's slot stays behind seen-only, and the re-probe counts
// its support there. The key is the zero key on purpose: a freed slot's
// key is zeroed, so only its cell tells it from the key's live slot.
func TestManagerReprobeAfterEviction(t *testing.T) {
	k := key(0)
	crossBag := func(m *manager[int64]) *manager[int64] {
		put(m, 1, key(6), 20)
		return m
	}
	for _, tc := range []struct {
		name   string
		policy Policy
		evict  func(m *manager[int64]) *manager[int64]
	}{
		{"cross-bag FIFO", Policy{Capacity: 1}, crossBag},
		{"cross-bag LRU", Policy{Capacity: 1, Eviction: EvictLRU}, crossBag},
		{"shrink", Policy{}, func(m *manager[int64]) *manager[int64] {
			m.evictUntil(0)
			return m
		}},
		{"shrink under support", Policy{SupportThreshold: 1}, func(m *manager[int64]) *manager[int64] {
			m.evictUntil(0)
			return m
		}},
		{"EvictNone refusal", Policy{Capacity: 1, Eviction: EvictNone}, nil},
		{"pool round trip", Policy{}, func(m *manager[int64]) *manager[int64] {
			c := m.c
			m.release()
			return acquireManager[int64](Policy{}, tablePlan(1, 1), c, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c stats.Counters
			m := acquireManager[int64](tc.policy, tablePlan(1, 1), &c, nil)
			if tc.evict == nil {
				// The capacity is taken by bag 1, so bag 0's store is
				// refused and its slot dropped.
				put(m, 1, key(6), 20)
			}
			for i := 0; i <= tc.policy.SupportThreshold; i++ {
				put(m, 0, k, 10)
			}
			if tc.evict != nil {
				if v, ok := get(m, 0, k); !ok || v != 10 {
					t.Fatalf("stored key read back %d, %v", v, ok)
				}
				m = tc.evict(m)
			}
			before := c
			if v, ok := get(m, 0, k); ok {
				t.Fatalf("re-probe of an evicted key hit, value %d", v)
			}
			charge := int64(1)
			if tc.policy.SupportThreshold > 0 {
				charge = 2
			}
			if c.CacheMisses != before.CacheMisses+1 || c.CacheHits != before.CacheHits || c.HashAccesses != before.HashAccesses+charge {
				t.Fatalf("re-probe charged %+v after %+v", c, before)
			}
			if tc.evict != nil {
				m.evictUntil(0)
				put(m, 0, k, 11)
				if v, ok := get(m, 0, k); !ok || v != 11 {
					t.Fatalf("re-stored key read back %d, %v", v, ok)
				}
			}
			for v := range m.tables {
				checkTable(t, &m.tables[v])
			}
			m.release()
		})
	}
}

func TestManagerDisabled(t *testing.T) {
	if m := acquireManager[int64](Policy{Disabled: true}, tablePlan(1), nil, nil); m != nil {
		t.Fatal("a disabled policy took a manager")
	}
	if m := acquireManager[int64](Policy{}, tablePlan(-1, -1), nil, nil); m != nil {
		t.Fatal("a plan with no cacheable bag took a manager")
	}
	var none *manager[int64]
	if none.Entries() != 0 {
		t.Fatal("nil manager reports entries")
	}
	none.release()
}

func TestManagerUncacheableBag(t *testing.T) {
	m := acquireManager[int64](Policy{}, tablePlan(1, -1), nil, nil)
	put(m, 1, key(1), 5)
	if _, ok := get(m, 1, key(1)); ok {
		t.Fatal("uncacheable bag stored an entry")
	}
}

// TestManagerEmptyAdhesion: a bag that shares no variable with its parent
// (a cross product) has adhesion width 0 — one key, one slot.
func TestManagerEmptyAdhesion(t *testing.T) {
	m := acquireManager[int64](Policy{}, tablePlan(0), nil, nil)
	put(m, 0, Key{}, 7)
	if v, ok := get(m, 0, Key{}); !ok || v != 7 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	if live := m.tables[0].live; live != 1 {
		t.Fatalf("table holds %d slots for its one key", live)
	}
}

func TestManagerCountsStats(t *testing.T) {
	var c stats.Counters
	m := acquireManager[int64](Policy{}, tablePlan(1), &c, nil)
	put(m, 0, key(1), 9)
	get(m, 0, key(1))
	if c.CacheMisses != 1 || c.CacheHits != 1 || c.CacheInserts != 1 {
		t.Fatalf("stats = %+v", c)
	}
	if c.HashAccesses != 3 {
		t.Fatalf("HashAccesses = %d, want one per probe and one per insert", c.HashAccesses)
	}
}

func TestManagerWeightedCost(t *testing.T) {
	cost := func(v []int64) int { return len(v) }
	m := acquireManager(Policy{Capacity: 5}, tablePlan(1), nil, cost)
	put(m, 0, key(1), []int64{1, 2, 3})
	if m.Entries() != 3 {
		t.Fatalf("weighted Entries = %d, want 3", m.Entries())
	}
	put(m, 0, key(2), []int64{1, 2, 3}) // 3+3 > 5: evict the first
	if m.Entries() > 5 {
		t.Fatalf("capacity exceeded: %d", m.Entries())
	}
	// A value larger than the whole capacity is rejected outright.
	m2 := acquireManager(Policy{Capacity: 2}, tablePlan(1), nil, cost)
	put(m2, 0, key(1), []int64{1, 2, 3})
	if _, ok := get(m2, 0, key(1)); ok {
		t.Fatal("oversized value stored")
	}
}

// checkReleased verifies that a released manager's tables are empty in
// every cell, whichever of reset's two ways of clearing the index ran.
// It looks at a manager the pool already holds, which is safe only
// because nothing else in this package's tests runs beside the caller.
func checkReleased[V any](t testing.TB, m *manager[V]) {
	t.Helper()
	for v := range m.tables {
		tb := &m.tables[v]
		if tb.live != 0 || len(tb.slab) != 0 || tb.head != 0 || tb.tail != 0 || tb.free != 0 || tb.on {
			t.Fatalf("released table %d: %d live of %d slots, list %d..%d, free %d", v, tb.live, len(tb.slab), tb.head, tb.tail, tb.free)
		}
		for c, ref := range tb.index {
			if ref != 0 {
				t.Fatalf("released table %d: cell %d still refers to slot %d", v, c, ref)
			}
		}
		for i, s := range tb.slab[:cap(tb.slab)] {
			if s.cost != 0 || s.key != (Key{}) {
				t.Fatalf("released table %d: slab position %d still holds %v", v, i, s.key)
			}
		}
	}
}

// TestManagerPoolReuse: a released manager comes back empty whatever plan
// it is next bound to and however little of its index the last run used,
// and a table that outgrew maxPooledSlots gives its memory up instead of
// being pooled.
func TestManagerPoolReuse(t *testing.T) {
	m := acquireManager[int64](Policy{}, tablePlan(2, 1), nil, nil)
	for i := int64(0); i < 1000; i++ {
		put(m, 0, key(i, -i), i)
		put(m, 1, key(i), i)
	}
	m.release()
	checkReleased(t, m)
	// A few keys per run, in the index the thousand grew and in fresh
	// minimal ones: over the runs they land in every cell.
	for i := int64(0); i < 300; i++ {
		m = acquireManager[int64](Policy{SupportThreshold: 1}, tablePlan(1, -1, 3), nil, nil)
		if m.Entries() != 0 {
			t.Fatalf("pooled manager holds %d entries", m.Entries())
		}
		for j := int64(0); j < 3; j++ {
			if _, ok := get(m, 0, key(3*i+j)); ok {
				t.Fatalf("pooled manager answers key %d", 3*i+j)
			}
			put(m, 2, key(i, j, i), j)
		}
		m.release()
		checkReleased(t, m)
	}

	big := acquireManager[int64](Policy{}, tablePlan(1, 1), nil, nil)
	for i := int64(0); i <= maxPooledSlots; i++ {
		put(big, 0, key(i), i)
	}
	put(big, 1, key(1), 1)
	kept := cap(big.tables[1].slab)
	big.release()
	checkReleased(t, big)
	if c := cap(big.tables[0].slab); c != 0 {
		t.Fatalf("a table of %d slots stayed pooled", c)
	}
	if c := cap(big.tables[1].slab); c != kept {
		t.Fatalf("the small table beside it was dropped too (cap %d, had %d)", c, kept)
	}
}

// TestTableSizedFromPlan: a manager taken after the collector has
// emptied the pool is sized to what the plan's last run left, so that
// filling it again grows nothing — capped by a bounded policy's
// capacity, and by nothing under a support threshold, whose seen-only
// slots the capacity does not count.
func TestTableSizedFromPlan(t *testing.T) {
	const n = 5000
	p := tablePlan(1)
	fill := func(m *manager[int64]) {
		for i := int64(0); i < n; i++ {
			put(m, 0, key(i), i)
		}
	}
	fresh := func(pol Policy) *manager[int64] {
		runtime.GC() // twice: the pool's content survives one collection
		runtime.GC()
		return acquireManager[int64](pol, p, nil, nil)
	}
	m := fresh(Policy{})
	if c := cap(m.tables[0].slab); c != 0 {
		t.Fatalf("a plan that has not run sized its table to %d slots", c)
	}
	fill(m)
	m.release()

	m = fresh(Policy{})
	tb := &m.tables[0]
	slabCap, cells := cap(tb.slab), len(tb.index)
	if slabCap != n {
		t.Fatalf("fresh table has room for %d slots, the last run left %d", slabCap, n)
	}
	fill(m)
	if cap(tb.slab) != slabCap || len(tb.index) != cells {
		t.Fatalf("refilling grew the table: slab %d -> %d, index %d -> %d", slabCap, cap(tb.slab), cells, len(tb.index))
	}
	checkTable(t, tb)
	m.release()

	m = fresh(Policy{Capacity: 256, Eviction: EvictLRU})
	if c := cap(m.tables[0].slab); c != 257 {
		t.Fatalf("a capacity of 256 sized the table to %d slots", c)
	}
	fill(m)
	if c := cap(m.tables[0].slab); c != 257 {
		t.Fatalf("a capacity of 256 filled %d slots", c)
	}
	m.release()

	// Pooled or not, a table smaller than the plan expects is replaced
	// while it is still empty.
	m = acquireManager[int64](Policy{}, p, nil, nil)
	if c := cap(m.tables[0].slab); c != n {
		t.Fatalf("after a bounded run the table has room for %d slots, want %d", c, n)
	}
	m.release()

	m = fresh(Policy{Capacity: 256, SupportThreshold: 1})
	if c := cap(m.tables[0].slab); c != n {
		t.Fatalf("under a support threshold the table has room for %d slots, want %d", c, n)
	}
	m.release()
}

// checkTable verifies the table's physical invariants: the index and the
// slab refer to each other, every live key is found by a fresh probe
// walk from its home cell without crossing an empty one, the eviction
// list holds exactly the stored slots, and free + live slots make up the
// slab.
func checkTable[V any](t testing.TB, tb *table[V]) {
	t.Helper()
	cells := 0
	for c, ref := range tb.index {
		if ref == 0 {
			continue
		}
		cells++
		s := &tb.slab[ref-1]
		if int(s.cell) != c {
			t.Fatalf("cell %d refers to slot %d, which claims cell %d", c, ref, s.cell)
		}
		mask := uint32(len(tb.index) - 1)
		for h := tb.hash(&s.key) & mask; h != uint32(c); h = (h + 1) & mask {
			if tb.index[h] == 0 {
				t.Fatalf("key %v at cell %d is cut off from its home by empty cell %d", s.key, c, h)
			}
		}
	}
	if cells != tb.live {
		t.Fatalf("index holds %d refs, live = %d", cells, tb.live)
	}
	if tb.live > 0 && 2*tb.live > len(tb.index) {
		t.Fatalf("index of %d cells holds %d slots", len(tb.index), tb.live)
	}
	free := 0
	for ref := tb.free; ref != 0; ref = tb.slab[ref-1].next {
		if tb.slab[ref-1].cell != -1 {
			t.Fatalf("free slot %d still claims cell %d", ref, tb.slab[ref-1].cell)
		}
		free++
	}
	if free+tb.live != len(tb.slab) {
		t.Fatalf("%d free + %d live slots in a slab of %d", free, tb.live, len(tb.slab))
	}
	stored, listed := 0, 0
	for i := range tb.slab {
		if tb.slab[i].cell >= 0 && tb.slab[i].cost > 0 {
			stored++
		}
	}
	prev := int32(0)
	for ref := tb.head; ref != 0; prev, ref = ref, tb.slab[ref-1].next {
		if s := &tb.slab[ref-1]; s.prev != prev || s.cost <= 0 {
			t.Fatalf("eviction list broken at slot %d (prev %d, want %d; cost %d)", ref, s.prev, prev, s.cost)
		}
		listed++
	}
	if prev != tb.tail || listed != stored {
		t.Fatalf("eviction list ends at %d with %d slots; tail = %d, stored = %d", prev, listed, tb.tail, stored)
	}
}

// cacheDiff is one differential run's configuration.
type cacheDiff struct {
	policy Policy
	dim    int    // adhesion width of every bag
	keys   int    // size of the key universe per bag
	ops    int    // top-level operations
	seed   uint64 // of the key universe and, without data, of the op stream
	data   []byte // fuzz: the op stream (two bytes per draw; ends the run when used up)
}

// draws is the op stream of a differential run: seeded random numbers,
// or the fuzzer's bytes.
type draws struct {
	rng  *rand.Rand
	data []byte
}

func (d *draws) n(n int) int {
	if d.rng != nil {
		return d.rng.IntN(n)
	}
	if len(d.data) < 2 {
		d.data = nil
		return 0
	}
	x := int(d.data[0])<<8 | int(d.data[1])
	d.data = d.data[2:]
	return x % n
}

func (d *draws) done() bool { return d.rng == nil && len(d.data) < 2 }

// adversarialKeys builds a key universe of width dim that mixes the
// shapes a hash table likes least: dense small ids, negatives, the
// extremes, multiples of large powers of two, and runs of keys equal in
// every dimension but the last.
func adversarialKeys(rng *rand.Rand, dim, n int) []Key {
	keys := make([]Key, 0, n)
	seen := make(map[Key]bool, n)
	var prefix Key
	for len(keys) < n {
		var k Key
		i := int64(len(keys))
		switch rng.IntN(6) {
		case 0: // dense ids, the same in every dimension
			for j := 0; j < dim; j++ {
				k[j] = i
			}
		case 1:
			for j := 0; j < dim; j++ {
				k[j] = -rng.Int64N(1 << 20)
			}
		case 2:
			for j := 0; j < dim; j++ {
				k[j] = []int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.IntN(4)] + int64(rng.IntN(3))
			}
		case 3: // multiples of 2^k: all the entropy is in the high bits
			shift := 8 + rng.IntN(48)
			for j := 0; j < dim; j++ {
				k[j] = rng.Int64N(1<<12) << shift
			}
		case 4: // a new shared prefix
			for j := 0; j < dim; j++ {
				prefix[j] = rng.Int64()
			}
			k = prefix
		default: // equal to the last prefix in all but the last dimension
			k = prefix
			k[dim-1] = i
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// diffCacheTable drives the flat-table manager and the reference model
// with one op stream shaped like the executors' use — nested bag visits
// (probe; on a miss visit deeper bags, then maybe store), with explicit
// evictUntil calls in between — and requires the same
// answers, values, Entries, eviction order and counters after every op.
func diffCacheTable[V any](t testing.TB, cfg cacheDiff, mk func(*draws) V, same func(a, b V) bool, cost func(V) int) {
	t.Helper()
	if raceEnabled {
		// One goroutine: the race run has nothing to find here, and its
		// instrumentation makes the full sweep take most of a minute.
		cfg.ops /= 8
	}
	const nodes = 4 // bag 2 is uncacheable
	widths := []int{cfg.dim, cfg.dim, -1, cfg.dim}
	plan := tablePlan(widths...)
	var gc, wc stats.Counters
	got := acquireManager(cfg.policy, plan, &gc, cost)
	want := newRefManager(cfg.policy, nodes, plan.cacheable, &wc, cost)
	universe := adversarialKeys(rand.New(rand.NewPCG(cfg.seed, 1)), cfg.dim, cfg.keys)
	src := &draws{data: cfg.data}
	if cfg.data == nil {
		src.rng = rand.New(rand.NewPCG(cfg.seed, 2))
	}

	op := 0
	agree := func(what string) {
		t.Helper()
		if got.Entries() != want.Entries() {
			t.Fatalf("op %d (%s): Entries = %d, reference %d", op, what, got.Entries(), want.Entries())
		}
		if gc != wc {
			t.Fatalf("op %d (%s): counters\n got %+v\nwant %+v", op, what, gc, wc)
		}
		// The tables are checked and the lists compared in full every so
		// often: a slip in between shows in the answers and counters.
		if op%31 != 0 {
			return
		}
		for v := range got.tables {
			tb := &got.tables[v]
			checkTable(t, tb)
			var e *refEntry[V]
			if want.caches[v] != nil {
				e = want.caches[v].head
			}
			for ref := tb.head; ref != 0 || e != nil; ref, e = tb.slab[ref-1].next, e.next {
				if ref == 0 || e == nil {
					t.Fatalf("op %d (%s): bag %d's eviction lists differ in length", op, what, v)
				}
				if s := &tb.slab[ref-1]; s.key != e.key || s.cost != e.cost || !same(s.val, e.val) {
					t.Fatalf("op %d (%s): bag %d's eviction order: slot %v, reference %v", op, what, v, s.key, e.key)
				}
			}
		}
	}

	// The key each bag's latest lookup probed: a visit re-probes it a
	// third of the time, which is what the table's last-slot check
	// resolves — after whatever the ops in between did to its slot.
	last := make([]Key, nodes)
	probed := make([]bool, nodes)
	var visit func(v int)
	visit = func(v int) {
		k := universe[src.n(len(universe))]
		if probed[v] && src.n(3) == 0 {
			k = last[v]
		}
		last[v], probed[v] = k, true
		gv, slot, gok := got.lookup(v, &k)
		wv, wok := want.lookup(v, k)
		if gok != wok || (gok && !same(gv, wv)) {
			t.Fatalf("op %d: lookup(%d, %v) = %v, %v; reference %v, %v", op, v, k, gv, gok, wv, wok)
		}
		agree("lookup")
		if gok {
			return
		}
		// The scan of the missed subtree: deeper bags only, so no bag is
		// re-entered before it is left.
		for v+1 < nodes && src.n(3) > 0 {
			visit(v + 1 + src.n(nodes-v-1))
		}
		if src.n(8) == 0 {
			return // a cancelled or stopped scan stores nothing
		}
		gs, ws := got.shouldCache(v, slot), want.shouldCache(v, k)
		if gs != ws {
			t.Fatalf("op %d: shouldCache(%d, %v) = %v, reference %v", op, v, k, gs, ws)
		}
		if gs {
			val := mk(src)
			got.store(v, slot, val)
			want.store(v, k, val)
			agree("store")
		}
	}
	for op = 0; op < cfg.ops && !src.done(); op++ {
		switch src.n(40) {
		case 0:
			target := src.n(want.Entries()+2) - 1
			if g, w := got.evictUntil(target), want.evictUntil(target); g != w {
				t.Fatalf("op %d: evictUntil(%d) = %v, reference %v", op, target, g, w)
			}
			agree("evictUntil")
		case 1:
			// A pool release and a re-acquire, as consecutive executions
			// make them: the tables come back empty.
			got.release()
			got = acquireManager(cfg.policy, plan, &gc, cost)
			want = newRefManager(cfg.policy, nodes, plan.cacheable, &wc, cost)
			agree("re-acquire")
		default:
			visit(src.n(nodes))
		}
	}
	// Every key's final answer, in both.
	for v := 0; v < nodes; v++ {
		for _, k := range universe {
			gv, _, gok := got.lookup(v, &k)
			wv, wok := want.lookup(v, k)
			if gok != wok || (gok && !same(gv, wv)) {
				t.Fatalf("final lookup(%d, %v) = %v, %v; reference %v, %v", v, k, gv, gok, wv, wok)
			}
		}
	}
	op = 0
	agree("final sweep")
	got.release()
	checkReleased(t, got)
}

func diffInt64(t testing.TB, cfg cacheDiff) {
	diffCacheTable(t, cfg,
		func(d *draws) int64 { return int64(d.n(1 << 16)) },
		func(a, b int64) bool { return a == b }, nil)
}

// diffSets runs the differential with eval cache entries as values,
// costed as evaluation costs them (an empty set or a count alone costs
// 1, and a long set can exceed a small Capacity outright).
func diffSets(t testing.TB, cfg cacheDiff) {
	diffCacheTable(t, cfg,
		func(d *draws) evalEntry {
			s := make(factorized.Set, d.n(6))
			for i := range s {
				s[i] = &factorized.Entry{}
			}
			if len(s) == 0 && d.n(2) == 1 {
				return evalEntry{n: int64(1 + d.n(9))}
			}
			return evalEntry{set: s, n: int64(len(s))}
		},
		func(a, b evalEntry) bool {
			return a.n == b.n && len(a.set) == len(b.set) && (len(a.set) == 0 || a.set[0] == b.set[0])
		},
		entryCost)
}

// TestCacheTableDifferential sweeps the policy lattice over adversarial
// keys against the map-and-pointer-list manager the tables replaced.
func TestCacheTableDifferential(t *testing.T) {
	seed := uint64(0)
	for _, evict := range []EvictionMode{EvictFIFO, EvictLRU, EvictNone} {
		for _, capacity := range []int{0, 1, 7, 256} {
			for _, support := range []int{0, 2} {
				for dim := 1; dim <= MaxKeyDim; dim++ {
					seed++
					cfg := cacheDiff{
						policy: Policy{Eviction: evict, Capacity: capacity, SupportThreshold: support},
						dim:    dim, keys: 600, ops: 1500, seed: seed,
					}
					t.Run(fmt.Sprintf("evict%d/cap%d/support%d/dim%d", evict, capacity, support, dim), func(t *testing.T) {
						diffInt64(t, cfg)
						diffSets(t, cfg)
					})
				}
			}
		}
	}
}

// TestCacheTableDifferentialGrowth fills unbounded and churning tables
// far enough to rehash several times and to recycle dropped slots.
func TestCacheTableDifferentialGrowth(t *testing.T) {
	for dim := 1; dim <= MaxKeyDim; dim += 3 {
		for _, p := range []Policy{{}, {SupportThreshold: 1}, {Capacity: 900, Eviction: EvictLRU}, {Capacity: 900}} {
			diffInt64(t, cacheDiff{policy: p, dim: dim, keys: 6000, ops: 12000, seed: uint64(100 + dim)})
		}
	}
}

// FuzzCacheTable lets the fuzzer pick the policy and write the op stream
// of the differential run.
func FuzzCacheTable(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), uint8(1), false, []byte("\x00\x01\x00\x02\x00\x01\x00\x07\x00\x03"))
	f.Add(uint8(1), uint16(7), uint8(2), uint8(4), true, []byte("adhesion caches turn spare memory into skipped trie work"))
	f.Add(uint8(2), uint16(1), uint8(0), uint8(2), true, []byte{0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, evict uint8, capacity uint16, support, dim uint8, sets bool, data []byte) {
		cfg := cacheDiff{
			policy: Policy{Eviction: EvictionMode(evict % 3), Capacity: int(capacity % 300), SupportThreshold: int(support % 4)},
			dim:    1 + int(dim)%MaxKeyDim, keys: 97, ops: len(data), seed: uint64(dim), data: data,
		}
		if cfg.data == nil {
			cfg.data = []byte{}
		}
		if sets {
			diffSets(t, cfg)
		} else {
			diffInt64(t, cfg)
		}
	})
}

// The reference model: the manager as it was before the flat tables — a
// Go map of heap entries per bag, a pointer-linked eviction list and a
// second map for support counts. Kept verbatim for the differential.
type refCache[V any] struct {
	entries map[Key]*refEntry[V]
	head    *refEntry[V] // next eviction victim
	tail    *refEntry[V] // most recently inserted/used
}

type refEntry[V any] struct {
	key        Key
	val        V
	cost       int
	prev, next *refEntry[V]
}

func newRefCache[V any]() *refCache[V] {
	return &refCache[V]{entries: make(map[Key]*refEntry[V])}
}

func (c *refCache[V]) pushBack(e *refEntry[V]) {
	e.prev, e.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

func (c *refCache[V]) unlink(e *refEntry[V]) {
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
func (c *refCache[V]) touch(e *refEntry[V]) {
	if c.tail == e {
		return
	}
	c.unlink(e)
	c.pushBack(e)
}

// manager coordinates the per-bag caches of one execution under a shared
// capacity and support policy.
type refManager[V any] struct {
	policy  Policy
	caches  []*refCache[V] // indexed by bag node; nil for uncacheable bags
	support []map[Key]int
	total   int // stored cost units (entries for counts, factorized entries for sets)
	c       *stats.Counters
	cost    func(V) int // capacity cost of one value
}

func newRefManager[V any](policy Policy, numNodes int, cacheable []bool, c *stats.Counters, cost func(V) int) *refManager[V] {
	m := &refManager[V]{
		policy:  policy,
		caches:  make([]*refCache[V], numNodes),
		support: make([]map[Key]int, numNodes),
		c:       c,
		cost:    cost,
	}
	for v := 0; v < numNodes; v++ {
		if cacheable[v] && !policy.Disabled {
			m.caches[v] = newRefCache[V]()
			if policy.SupportThreshold > 0 {
				m.support[v] = make(map[Key]int)
			}
		}
	}
	return m
}

// lookup probes bag v's cache; it also bumps the support counter, so call
// it exactly once per bag entry.
func (m *refManager[V]) lookup(v int, key Key) (V, bool) {
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
func (m *refManager[V]) shouldCache(v int, key Key) bool {
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
func (m *refManager[V]) store(v int, key Key, val V) {
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
	e := &refEntry[V]{key: key, val: val, cost: cost}
	ch.entries[key] = e
	ch.pushBack(e)
	m.total += cost
	if m.c != nil {
		m.c.HashAccesses++
		m.c.CacheInserts++
	}
}

func (m *refManager[V]) costOf(val V) int {
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
func (m *refManager[V]) evictUntil(target int) bool {
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
func (m *refManager[V]) Entries() int { return m.total }
