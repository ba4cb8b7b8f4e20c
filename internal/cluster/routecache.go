package cluster

import (
	"container/list"
	"sync"
)

// defaultRouteCacheSize is the coordinator's route-cache capacity when
// the config does not name one.
const defaultRouteCacheSize = 256

// routeEntry is one cached routing decision plus what the query's first
// execution learned: the sorted relation names the query touches and the
// shards' common variable order, which every later execution is held
// to. Entries are keyed by the raw query text alone. No version or
// option enters the key: the route is a function of the query's shape
// and the partitioning, and the variable order pinned with it comes from
// the serving planner, which reads the query's structure and no index —
// neither can be moved by an update.
type routeEntry struct {
	key   string
	route RoutePlan
	names []string
	order []string
	elem  *list.Element // in routeCache.lru
}

// routeCache is the coordinator's LRU over routing decisions — the
// distributed analogue of the engine's plan cache (the expensive
// per-shard compilation is cached by each shard's own plan cache; what
// the coordinator caches is parse + route + the pinned merge order).
type routeCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*routeEntry
	lru     list.List // of *routeEntry; front: least recently used (next victim)
	hits    int64
	misses  int64
	evicted int64
}

// newRouteCache returns an LRU route cache holding at most capacity
// entries.
func newRouteCache(capacity int) *routeCache {
	return &routeCache{cap: capacity, entries: make(map[string]*routeEntry)}
}

// get returns the cached entry's route/names/order, refreshing recency.
func (rc *routeCache) get(key string) (RoutePlan, []string, []string, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e, ok := rc.entries[key]
	if !ok {
		rc.misses++
		return RoutePlan{}, nil, nil, false
	}
	rc.hits++
	rc.lru.MoveToBack(e.elem)
	return e.route, e.names, e.order, true
}

// put stores one routing decision, evicting the least recently used
// entry past capacity. order may be nil (not yet learned); learn fills
// it in later.
func (rc *routeCache) put(key string, route RoutePlan, names, order []string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e, ok := rc.entries[key]; ok {
		e.route, e.names, e.order = route, names, order
		rc.lru.MoveToBack(e.elem)
		return
	}
	e := &routeEntry{key: key, route: route, names: names, order: order}
	e.elem = rc.lru.PushBack(e)
	rc.entries[key] = e
	for len(rc.entries) > rc.cap {
		victim := rc.lru.Remove(rc.lru.Front()).(*routeEntry)
		delete(rc.entries, victim.key)
		rc.evicted++
	}
}

// learn records the variable order the shards agreed on for key, so
// later executions are verified against it.
func (rc *routeCache) learn(key string, order []string) {
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
