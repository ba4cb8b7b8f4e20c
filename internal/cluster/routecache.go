package cluster

import "sync"

// DefaultRouteCacheSize is the coordinator's route-cache capacity when
// the config does not name one.
const DefaultRouteCacheSize = 256

// routeEntry is one cached routing decision plus what the query's first
// execution learned: the sorted relation names the query touches and the
// shards' common variable order, which every later execution is held
// to. Entries are keyed by the raw query text alone. No version or
// option enters the key: the route is a function of the query's shape
// and the partitioning, and the variable order pinned with it comes from
// the serving planner, which reads the query's structure and no index —
// neither can be moved by an update.
type routeEntry struct {
	key        string
	route      RoutePlan
	names      []string
	order      []string
	prev, next *routeEntry
}

// routeCache is the coordinator's LRU over routing decisions — the
// distributed analogue of the engine's plan cache (the expensive
// per-shard compilation is cached by each shard's own plan cache; what
// the coordinator caches is parse + route + the pinned merge order).
type routeCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*routeEntry
	head    *routeEntry // least recently used (next victim)
	tail    *routeEntry // most recently used
	hits    int64
	misses  int64
	evicted int64
}

// newRouteCache returns an LRU route cache holding at most capacity
// entries; capacity <= 0 returns nil (caching disabled).
func newRouteCache(capacity int) *routeCache {
	if capacity <= 0 {
		return nil
	}
	return &routeCache{cap: capacity, entries: make(map[string]*routeEntry)}
}

// get returns the cached entry's route/names/order, refreshing recency.
func (rc *routeCache) get(key string) (RoutePlan, []string, []string, bool) {
	if rc == nil {
		return RoutePlan{}, nil, nil, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e, ok := rc.entries[key]
	if !ok {
		rc.misses++
		return RoutePlan{}, nil, nil, false
	}
	rc.hits++
	rc.moveToTail(e)
	return e.route, e.names, e.order, true
}

// put stores one routing decision, evicting the least recently used
// entry past capacity. order may be nil (not yet learned); learn fills
// it in later.
func (rc *routeCache) put(key string, route RoutePlan, names, order []string) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e, ok := rc.entries[key]; ok {
		e.route, e.names, e.order = route, names, order
		rc.moveToTail(e)
		return
	}
	e := &routeEntry{key: key, route: route, names: names, order: order}
	rc.entries[key] = e
	rc.pushTail(e)
	for len(rc.entries) > rc.cap {
		victim := rc.head
		rc.unlink(victim)
		delete(rc.entries, victim.key)
		rc.evicted++
	}
}

// learn records the variable order the shards agreed on for key, so
// later executions are verified against it.
func (rc *routeCache) learn(key string, order []string) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e, ok := rc.entries[key]; ok && e.order == nil {
		e.order = order
	}
}

// RouteCacheStats reports the route cache's lifetime activity and
// current residency, served under "routes" in the coordinator's stats.
type RouteCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

func (rc *routeCache) stats() RouteCacheStats {
	if rc == nil {
		return RouteCacheStats{}
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return RouteCacheStats{
		Hits:      rc.hits,
		Misses:    rc.misses,
		Evictions: rc.evicted,
		Size:      len(rc.entries),
		Capacity:  rc.cap,
	}
}

// moveToTail, pushTail and unlink are the usual intrusive-list moves;
// callers hold mu.
func (rc *routeCache) moveToTail(e *routeEntry) {
	if rc.tail == e {
		return
	}
	rc.unlink(e)
	rc.pushTail(e)
}

func (rc *routeCache) pushTail(e *routeEntry) {
	e.prev, e.next = rc.tail, nil
	if rc.tail != nil {
		rc.tail.next = e
	}
	rc.tail = e
	if rc.head == nil {
		rc.head = e
	}
}

func (rc *routeCache) unlink(e *routeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		rc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		rc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
