package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/server"
	"repro/internal/stats"
)

// Config tunes a Coordinator.
type Config struct {
	// RouteCache bounds the routing cache (entries; 0:
	// DefaultRouteCacheSize, negative: disabled). Entries are keyed by
	// query text alone: a route and the variable order pinned with it
	// are structural, so updates leave them valid.
	RouteCache int
}

// Coordinator fans queries out over a fixed shard fleet and merges the
// answers with single-engine semantics. It is safe for concurrent use.
//
// Exactness contract: the shards must hold disjoint first-attribute
// hash partitions of one database under ShardOf (Partition or Keep
// built them, and every update went through SplitUpdate or
// Coordinator.Update). Under that invariant, for every query Route
// admits, the merged answer — count, aggregate, eval sample, stream —
// is byte-identical to a single engine serving the union, and the
// merged stats.Counters are the exact fold of the per-shard work.
type Coordinator struct {
	routing Routing
	shards  []Shard
	routes  *routeCache

	// known[shard][relation] is the newest version the coordinator has
	// seen that shard stand at: what it sends as if_versions with the next
	// call. Forward only — versions never go back, so an older report is a
	// replica that missed an update, never news.
	knownMu sync.Mutex
	known   []map[string]uint64

	queries         atomic.Int64
	updates         atomic.Int64
	snapshotRetries atomic.Int64
	snapshotRejects atomic.Int64
	notShardable    atomic.Int64
	partialServed   atomic.Int64
}

// New builds a coordinator over an ordered shard fleet: shards[i] must
// serve partition i of routing (the order is part of the partitioning
// contract, not a convenience).
func New(routing Routing, shards []Shard, cfg Config) (*Coordinator, error) {
	if routing.Shards < 1 {
		return nil, fmt.Errorf("cluster: routing needs at least 1 shard, got %d", routing.Shards)
	}
	if len(shards) != routing.Shards {
		return nil, fmt.Errorf("cluster: routing describes %d shards but %d were given", routing.Shards, len(shards))
	}
	capacity := cfg.RouteCache
	if capacity == 0 {
		capacity = DefaultRouteCacheSize
	}
	known := make([]map[string]uint64, len(shards))
	for i := range known {
		known[i] = make(map[string]uint64)
	}
	return &Coordinator{
		routing: routing,
		shards:  shards,
		routes:  newRouteCache(capacity),
		known:   known,
	}, nil
}

// NewHTTP builds a coordinator whose fleet is the given daemon
// addresses, in partition order (cltjd -coordinator -shards a,b,...).
func NewHTTP(addrs []string, ccfg ClientConfig, cfg Config) (*Coordinator, error) {
	groups := make([][]string, len(addrs))
	for i, a := range addrs {
		groups[i] = []string{a}
	}
	return NewHTTPFleet(groups, ccfg, ReplicaConfig{}, cfg)
}

// NewHTTPFleet builds a coordinator over replica groups in partition
// order: groups[i] lists the interchangeable endpoints serving
// partition i (cltjd -coordinator -shards "a1|a2,b" makes partition 0 a
// two-replica group and partition 1 a bare endpoint). Single-endpoint
// groups skip the replica wrapper entirely.
func NewHTTPFleet(groups [][]string, ccfg ClientConfig, rcfg ReplicaConfig, cfg Config) (*Coordinator, error) {
	shards := make([]Shard, len(groups))
	for i, g := range groups {
		if len(g) == 1 {
			shards[i] = NewClient(g[0], ccfg)
			continue
		}
		reps := make([]Shard, len(g))
		for j, a := range g {
			reps[j] = NewClient(a, ccfg)
		}
		shards[i] = NewReplicaSet(reps, rcfg)
	}
	return New(Routing{Shards: len(groups)}, shards, cfg)
}

// Routing returns the partitioning descriptor the coordinator routes by.
func (c *Coordinator) Routing() Routing { return c.routing }

// readyPollInterval paces WaitReady's probes between failed rounds.
const readyPollInterval = 100 * time.Millisecond

// WaitReady blocks until every shard answers its readiness probe (a
// warm-booting shard replaying its WAL answers 503 until it serves), or
// ctx expires — then the error names the shard still not ready. The
// coordinator daemon gates admission on it before accepting queries.
func (c *Coordinator) WaitReady(ctx context.Context) error {
	idxs := allIndexes(len(c.shards))
	for {
		_, err := each(ctx, c.shards, idxs, "ready", true, func(ctx context.Context, i int) error {
			return c.shards[i].Ready(ctx)
		})
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: fleet not ready: %w", err)
		case <-time.After(readyPollInterval):
		}
	}
}

// allIndexes returns 0..n-1: a whole fleet (or replica group) as each's
// index list.
func allIndexes(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// shardErr wraps a shard failure with its name and operation; already
// typed cluster errors pass through unwrapped so HTTP status mapping
// sees them.
func shardErr(s Shard, op string, err error) error {
	if _, ok := err.(*ShardError); ok {
		return err
	}
	return &ShardError{Shard: s.Name(), Op: op, Err: err}
}

// each is the one fan-out primitive, of a coordinator over its shards
// and of a replica group over its replicas: it runs f once per index of
// shards concurrently, waits for every call to return — no goroutine
// outlives the fan-out — and reports the outcomes aligned with idxs (nil
// entries succeeded, failures are wrapped as ShardErrors naming the
// shard) plus the first failure to arrive. With strict set that first
// failure cancels the siblings; otherwise every shard runs to
// completion, because the caller wants every survivor's answer, not the
// fastest failure. A single index has no siblings to overlap with or
// cancel, so f runs on the caller's goroutine.
func each(ctx context.Context, shards []Shard, idxs []int, op string, strict bool, f func(ctx context.Context, shard int) error) (errs []error, first error) {
	errs = make([]error, len(idxs))
	if len(idxs) == 1 {
		if err := f(ctx, idxs[0]); err != nil {
			errs[0] = shardErr(shards[idxs[0]], op, err)
		}
		return errs, errs[0]
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan int, len(idxs))
	for j, i := range idxs {
		go func() {
			if err := f(ctx, i); err != nil {
				errs[j] = shardErr(shards[i], op, err)
			}
			done <- j
		}()
	}
	for range idxs {
		if j := <-done; errs[j] != nil && first == nil {
			first = errs[j]
			if strict {
				cancel()
			}
		}
	}
	return errs, first
}

// tolerable reports whether err is the kind of shard failure
// allow_partial may absorb — the shard (or every path to it) is down,
// so the query can proceed over the survivors. Context outcomes,
// snapshot rejections, routing refusals and shard-side 4xx answers are
// about the request or the merge, not the shard's health: dropping the
// shard would not make them right, so they fail the whole query.
func tolerable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	if errors.Is(err, ErrSnapshotMoved) || errors.Is(err, ErrNotShardable) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) && se.Status < 500 {
		return false
	}
	return true
}

// expected returns the sub-vector over names the coordinator expects
// shard i to stand at, or nil when it has never seen one of them.
func (c *Coordinator) expected(i int, names []string) map[string]uint64 {
	want := make(map[string]uint64, len(names))
	c.knownMu.Lock()
	defer c.knownMu.Unlock()
	for _, name := range names {
		num, ok := c.known[i][name]
		if !ok {
			return nil
		}
		want[name] = num
	}
	return want
}

// raise folds a vector shard i was seen at into known, forward only.
func (c *Coordinator) raise(i int, vec map[string]uint64) {
	c.knownMu.Lock()
	defer c.knownMu.Unlock()
	for name, num := range vec {
		if have, ok := c.known[i][name]; !ok || num > have {
			c.known[i][name] = num
		}
	}
}

// behind reports whether have, a vector a shard refused a request with,
// trails want, the vector the request expected, on any relation: the
// shard missed an update the coordinator has seen applied, and asking
// again will not help.
func behind(have, want map[string]uint64) bool {
	for name, num := range want {
		if h, ok := have[name]; ok && h < num {
			return true
		}
	}
	return false
}

// routed is one resolved execution: the route, the touched relations
// and the expected variable order (nil until the query's first execution
// learns it).
type routed struct {
	key   string // the query text, the route cache's key
	route RoutePlan
	names []string
	order []string

	// live are the routed shards still answering, in route order.
	// missing marks the routed shards lost so far — only shards the
	// route needs count: a dead shard outside the route leaves a
	// single-shard answer exact, not partial — and dead is the first
	// loss, what the request fails with once no survivor is left.
	live    []int
	missing map[int]bool
	dead    error
}

// lose marks a routed shard missing and takes it out of live (into a
// fresh slice: live starts out as the cached route's own).
func (rt *routed) lose(shard int, err error) {
	if rt.missing == nil {
		rt.missing = make(map[int]bool)
	}
	rt.missing[shard] = true
	if rt.dead == nil {
		rt.dead = err
	}
	live := make([]int, 0, len(rt.live))
	for _, i := range rt.live {
		if i != shard {
			live = append(live, i)
		}
	}
	rt.live = live
}

// absorb is the one tolerate-or-fail decision of degraded mode, over the
// outcomes of one each (errs aligned with asked, first the first failure
// to arrive). Strict (partial unset): the first failure fails the
// request. Partial: a tolerable failure only loses its shard, any other
// failure still fails the request, and so does losing every routed
// shard — there are no survivors to answer from, partial or not.
func (rt *routed) absorb(ctx context.Context, asked []int, errs []error, first error, partial bool) error {
	if first == nil || !partial {
		return first
	}
	for j, e := range errs {
		switch {
		case e == nil:
		case !tolerable(ctx, e):
			return e
		default:
			rt.lose(asked[j], e)
		}
	}
	if len(rt.live) == 0 {
		return rt.dead
	}
	return nil
}

// resolve is the one fan-out prologue of Do and StreamCtx: validate and
// normalize the request, arm timeout_ms — here, once, so a deadline is a
// context outcome (504) whatever the fleet is made of, and the shards
// are sent none of their own — and decide the route: from the route
// cache, or parse + route on a miss. The returned cancel is never nil.
//
// Prepared statements are engine-local handles a coordinator cannot
// route. Nothing about planning needs forcing: every engine plans from
// the query pattern alone, so every shard (whatever its data slice looks
// like, at whatever version) compiles the same variable order and the
// merges are byte-exact.
func (c *Coordinator) resolve(ctx context.Context, req server.Request) (context.Context, context.CancelFunc, server.Request, *routed, error) {
	cancel := context.CancelFunc(func() {})
	if req.Stmt != "" {
		return ctx, cancel, req, nil, fmt.Errorf("cluster: prepared statements are engine-local — send query text to the coordinator")
	}
	if req.IfVersions != nil {
		return ctx, cancel, req, nil, fmt.Errorf("cluster: if_versions is a precondition on one engine's snapshot — a fleet has one vector per shard, which the coordinator sends itself")
	}
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		req.TimeoutMS = 0
	}
	rt := &routed{key: req.Query}
	var cached bool
	if rt.route, rt.names, rt.order, cached = c.routes.get(rt.key); !cached {
		q, err := cq.Parse(req.Query)
		if err != nil {
			return ctx, cancel, req, nil, err
		}
		if rt.route, err = c.routing.Route(q); err != nil {
			c.notShardable.Add(1)
			return ctx, cancel, req, nil, err
		}
		rt.names = server.RelNames(q)
		c.routes.put(rt.key, rt.route, rt.names, nil)
	}
	rt.live = rt.route.Shards
	return ctx, cancel, req, rt, nil
}

// expect fixes the vector every live routed shard is expected to stand
// at, indexed by shard, before any of them is asked to execute: each was
// seen at its vector no later than now and must still be there when it
// executes, so an instant exists — this one — at which the whole route
// stood at the vectors the merged answer was computed at. A shard the
// coordinator has never heard from about one of the query's relations is
// asked first (cold start only; a relation it does not store reads as
// version 0, as its own snapshot reads it).
func (c *Coordinator) expect(ctx context.Context, rt *routed, partial bool) ([]map[string]uint64, error) {
	want := make([]map[string]uint64, len(c.shards))
	var cold []int
	for _, i := range rt.live {
		if want[i] = c.expected(i, rt.names); want[i] == nil {
			cold = append(cold, i)
		}
	}
	if cold == nil {
		return want, nil
	}
	errs, first := each(ctx, c.shards, cold, "versions", !partial, func(ctx context.Context, i int) error {
		have, err := c.shards[i].Versions(ctx, rt.names)
		if err != nil {
			return err
		}
		vec := make(map[string]uint64, len(rt.names))
		for _, name := range rt.names {
			vec[name] = have[name]
		}
		c.raise(i, vec)
		want[i] = c.expected(i, rt.names)
		return nil
	})
	return want, rt.absorb(ctx, cold, errs, first, partial)
}

// fanout is the optimistic snapshot handshake around one call per live
// routed shard: f(ctx, shard, want) must send want as the request's
// if_versions, so a shard that executes, executes at the vector the
// coordinator expected, and one standing elsewhere refuses with a
// *server.VersionMismatch before anything is delivered. A refusal
// reporting a newer vector raises known and re-runs the whole fan-out,
// once — re-running only the refusing shard would lose the common
// instant expect establishes — and a second one is ErrSnapshotMoved. A
// refusal reporting an older vector is a shard behind what the
// coordinator has seen applied (a replica group has already failed over
// past its stale members): ErrSnapshotMoved at once, never absorbed by
// allow_partial. Every other failure is absorb's to tolerate or fail;
// on a nil return rt.live lists the shards that answered.
func (c *Coordinator) fanout(ctx context.Context, rt *routed, op string, partial bool, f func(ctx context.Context, shard int, want map[string]uint64) error) error {
	for retried := false; ; retried = true {
		want, err := c.expect(ctx, rt, partial)
		if err != nil {
			return err
		}
		asked := rt.live
		errs, first := each(ctx, c.shards, asked, op, !partial, func(ctx context.Context, i int) error {
			return f(ctx, i, want[i])
		})
		var moved error
		for j, e := range errs {
			var vm *server.VersionMismatch
			if !errors.As(e, &vm) {
				continue
			}
			i := asked[j]
			c.raise(i, vm.Have)
			if behind(vm.Have, want[i]) {
				c.snapshotRejects.Add(1)
				return fmt.Errorf("%w: shard %s stands at %v, behind the %v already seen applied, and no caught-up replica answered", ErrSnapshotMoved, c.shards[i].Name(), vm.Have, want[i])
			}
			if moved == nil {
				moved = fmt.Errorf("%w: shard %s was expected at %v and stands at %v, after one retry already", ErrSnapshotMoved, c.shards[i].Name(), want[i], vm.Have)
			}
		}
		switch {
		case moved == nil:
			return rt.absorb(ctx, asked, errs, first, partial)
		case retried:
			c.snapshotRejects.Add(1)
			return moved
		}
		c.snapshotRetries.Add(1)
	}
}

// lost names the routed shards a finished answer is missing, sorted
// (nil: the answer is complete), and counts a partial answer served.
// Never silently wrong: a degraded answer is exact over the survivors
// and says so, naming what it lacks.
func (c *Coordinator) lost(rt *routed) []string {
	var names []string
	for _, i := range rt.route.Shards {
		if rt.missing[i] {
			names = append(names, c.shards[i].Name())
		}
	}
	if names != nil {
		sort.Strings(names)
		c.partialServed.Add(1)
	}
	return names
}

// checkOrders verifies the per-shard variable orders agree with each
// other, with the cached expectation, and — on multi-shard routes —
// lead with the partition variable the merge keys on. idxs aligns
// orders with the shards that actually answered (in partial mode a
// subset of the route). It returns the common order.
func (c *Coordinator) checkOrders(rt *routed, idxs []int, orders [][]string) ([]string, error) {
	want := rt.order
	for j, ord := range orders {
		if want == nil {
			want = ord
			continue
		}
		if !slices.Equal(want, ord) {
			return nil, &ShardError{
				Shard: c.shards[idxs[j]].Name(),
				Op:    "merge",
				Err:   fmt.Errorf("variable order %v diverges from %v — shards must plan identically", ord, want),
			}
		}
	}
	if len(rt.route.Shards) > 1 {
		if len(want) == 0 || want[0] != rt.route.Var {
			return nil, &ShardError{
				Shard: c.shards[idxs[0]].Name(),
				Op:    "merge",
				Err:   fmt.Errorf("variable order %v does not lead with partition variable %q", want, rt.route.Var),
			}
		}
	}
	if rt.order == nil {
		c.routes.learn(rt.key, want)
	}
	return want, nil
}

// Do executes one buffered request across the fleet and merges the
// per-shard responses: counts and counting aggregates by summation,
// "sum" by summation and "min" by minimum (an empty shard answers the
// semiring identity, so the fold is exact), eval samples by a k-way
// root-key merge that reproduces the single-engine tuple order, and
// per-query counters by stats.Counters.Merge. Every shard call carries
// the vector the coordinator expects of that shard (fanout), so the
// responses merged here all executed at one global snapshot. The merged
// Response carries no Versions map — per-shard vectors do not collapse
// into one.
func (c *Coordinator) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	start := time.Now()
	// The coordinator folds by mode and semiring, so it refuses the ones
	// it cannot fold itself, before any shard is asked.
	switch req.Mode {
	case "", "count", "eval":
	case "aggregate":
		switch req.Semiring {
		case "", "count", "sum", "min":
		default:
			return nil, fmt.Errorf("cluster: unknown semiring %q (want count, sum or min)", req.Semiring)
		}
	case "stream":
		return nil, fmt.Errorf("cluster: mode \"stream\" has no buffered response — use Coordinator.StreamCtx or POST /query over HTTP")
	default:
		return nil, fmt.Errorf("cluster: unknown mode %q (want count, eval or aggregate)", req.Mode)
	}
	ctx, cancel, req, rt, err := c.resolve(ctx, req)
	defer cancel()
	if err != nil {
		return nil, err
	}
	limit := 0
	if req.Mode == "eval" {
		// The coordinator resolves the effective limit itself and pins it
		// on every shard: each shard then returns (up to) a full global
		// sample's worth of its lowest root blocks, which is exactly what
		// the k-way merge needs to reproduce the single-engine prefix.
		limit = req.Limit
		if limit <= 0 {
			limit = server.DefaultMaxTuples
		}
		req.Limit = limit
	}

	byShard := make([]*server.Response, len(c.shards))
	err = c.fanout(ctx, rt, "query", req.AllowPartial, func(ctx context.Context, i int, want map[string]uint64) error {
		sreq := req
		sreq.IfVersions = want
		resp, err := c.shards[i].Do(ctx, sreq)
		if err == nil {
			c.raise(i, resp.Versions)
		}
		byShard[i] = resp
		return err
	})
	if err != nil {
		return nil, err
	}
	live := rt.live
	resps := make([]*server.Response, len(live))
	orders := make([][]string, len(live))
	for j, i := range live {
		resps[j], orders[j] = byShard[i], byShard[i].Order
	}
	order, err := c.checkOrders(rt, live, orders)
	if err != nil {
		return nil, err
	}

	// Counts (count, eval, the counting aggregate) and "sum" values fold
	// by addition — a response leaves the field its mode does not use at
	// zero — and "min" by minimum.
	merged := &server.Response{Mode: resps[0].Mode, Order: order}
	merged.Stats.PlanCached = true
	for _, r := range resps {
		merged.Stats.Counters.Merge(&r.Stats.Counters)
		merged.Stats.CachedEntries += r.Stats.CachedEntries
		merged.Stats.PlanCached = merged.Stats.PlanCached && r.Stats.PlanCached
		merged.Stats.PlanRebound = merged.Stats.PlanRebound || r.Stats.PlanRebound
		merged.Count += r.Count
		merged.Value += r.Value
	}
	if req.Mode == "aggregate" && req.Semiring == "min" {
		merged.Value = resps[0].Value
		for _, r := range resps[1:] {
			merged.Value = min(merged.Value, r.Value)
		}
	}
	if req.Mode == "eval" {
		merged.Tuples = mergeSamples(resps, limit)
		merged.Truncated = merged.Count > int64(limit)
	}
	if names := c.lost(rt); names != nil {
		merged.Partial, merged.Missing = true, names
	}
	merged.Stats.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	c.queries.Add(1)
	return merged, nil
}

// mergeSamples k-way merges the per-shard eval samples by root key into
// the single-engine tuple order. Shards hold disjoint root partitions
// and each shard's sample is already root-ascending, so repeatedly
// taking the smallest head reproduces the union engine's emission order
// exactly; the partition invariant means two heads never tie (one root
// value lives on one shard), but ties break to the lower shard index so
// the merge stays deterministic even over a mispartitioned fleet.
func mergeSamples(resps []*server.Response, limit int) [][]int64 {
	heads := make([]int, len(resps))
	var out [][]int64
	for len(out) < limit {
		best := -1
		for j, r := range resps {
			if heads[j] >= len(r.Tuples) {
				continue
			}
			if best == -1 || r.Tuples[heads[j]][0] < resps[best].Tuples[heads[best]][0] {
				best = j
			}
		}
		if best == -1 {
			break
		}
		out = append(out, resps[best].Tuples[heads[best]])
		heads[best]++
	}
	return out
}

// UpdateResponse is the merged result of one routed update fan-out.
type UpdateResponse struct {
	// Relation echoes the mutated relation.
	Relation string `json:"relation"`
	// Applied reports whether any shard applied a net change.
	Applied bool `json:"applied"`
	// Tuples is the relation's cardinality summed over the shards that
	// received part of the delta (not the whole fleet).
	Tuples int `json:"tuples"`
	// Shards maps each touched shard's name to its own update result.
	Shards map[string]*server.UpdateResult `json:"shards"`
}

// Update routes one delta the same way the partitioner routed the base
// data — each tuple to the shard its first attribute hashes to — and
// applies the per-shard sub-deltas concurrently. Only shards receiving
// tuples are touched (an empty delta probes the whole fleet so an
// unknown relation fails identically to a single engine). A shard
// failure surfaces as a typed ShardError; the delta may then be applied
// on some shards only, and retrying the same request converges — set
// semantics make the re-application of the already-applied sub-deltas a
// version-preserving no-op.
func (c *Coordinator) Update(ctx context.Context, req server.UpdateRequest) (*UpdateResponse, error) {
	parts, err := SplitUpdate(req, c.routing.Shards)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for i, p := range parts {
		if len(p.Inserts) > 0 || len(p.Deletes) > 0 {
			idxs = append(idxs, i)
		}
	}
	if idxs == nil {
		idxs = allIndexes(len(c.shards))
	}
	results := make([]*server.UpdateResult, len(c.shards))
	_, err = each(ctx, c.shards, idxs, "update", true, func(ctx context.Context, i int) error {
		res, err := c.shards[i].Update(ctx, parts[i])
		if res != nil {
			// The coordinator's own writes never cost a reader a 409,
			// even those a replica group applied only in part.
			c.raise(i, map[string]uint64{res.Relation: res.Version})
		}
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &UpdateResponse{Relation: req.Relation, Shards: make(map[string]*server.UpdateResult, len(idxs))}
	for _, i := range idxs {
		res := results[i]
		out.Applied = out.Applied || res.Applied
		out.Tuples += res.Tuples
		out.Shards[c.shards[i].Name()] = res
	}
	c.updates.Add(1)
	return out, nil
}

// ShardStats pairs one shard's name with its engine-lifetime stats.
// Error carries the probe failure for a shard that did not answer (its
// Stats are then zero) — a degraded fleet still serves its stats.
type ShardStats struct {
	Shard string             `json:"shard"`
	Stats server.EngineStats `json:"stats"`
	Error string             `json:"error,omitempty"`
}

// Stats is the coordinator's merged view of the fleet, served by the
// coordinator's GET /stats.
type Stats struct {
	// Shards is the fleet size.
	Shards int `json:"shards"`
	// Queries and Updates count coordinator-served merges and routed
	// deltas (the per-shard stats count their local executions).
	Queries int64 `json:"queries"`
	Updates int64 `json:"updates"`
	// SnapshotRetries counts fan-outs re-run because a shard refused the
	// vector the coordinator expected of it and reported a newer one — an
	// update applied behind the coordinator's back, absorbed. The client
	// saw nothing. SnapshotRejects counts requests failed with
	// ErrSnapshotMoved: a shard moved again during the one retry, or
	// stands behind what the coordinator has seen applied with no
	// caught-up replica. NotShardable counts queries refused by the
	// routing rule.
	SnapshotRetries int64 `json:"snapshot_retries"`
	SnapshotRejects int64 `json:"snapshot_rejects"`
	NotShardable    int64 `json:"not_shardable"`
	// PartialServed counts answers served with partial=true — exact
	// over the surviving shards, with the missing ones named.
	PartialServed int64 `json:"partial_served"`
	// Breakers inventories every endpoint circuit the fleet's clients
	// guard, in partition then replica-preference order.
	Breakers []BreakerState `json:"breakers,omitempty"`
	// Routes describes the routing cache.
	Routes RouteCacheStats `json:"routes"`
	// Lifetime is the exact stats.Counters fold of every shard's
	// lifetime counters — the same Merge the in-process parallel engine
	// uses, so the fleet's total work reads like one engine's.
	Lifetime stats.Counters `json:"lifetime"`
	// PerShard inventories the fleet in partition order.
	PerShard []ShardStats `json:"per_shard"`
}

// Stats snapshots every shard's engine stats concurrently and folds
// their lifetime counters exactly. A shard that does not answer is
// reported with its probe error instead of failing the whole snapshot —
// during an incident, the fleet view (breaker states included) is
// exactly what the operator needs.
func (c *Coordinator) Stats(ctx context.Context) (*Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	per := make([]*server.EngineStats, len(c.shards))
	errs, _ := each(ctx, c.shards, allIndexes(len(c.shards)), "stats", false, func(ctx context.Context, i int) error {
		st, err := c.shards[i].Stats(ctx)
		per[i] = st
		return err
	})
	out := &Stats{
		Shards:          len(c.shards),
		Queries:         c.queries.Load(),
		Updates:         c.updates.Load(),
		SnapshotRetries: c.snapshotRetries.Load(),
		SnapshotRejects: c.snapshotRejects.Load(),
		NotShardable:    c.notShardable.Load(),
		PartialServed:   c.partialServed.Load(),
		Breakers:        c.breakerStates(),
		Routes:          c.routes.stats(),
	}
	for i, st := range per {
		ss := ShardStats{Shard: c.shards[i].Name()}
		if st != nil {
			out.Lifetime.Merge(&st.Lifetime)
			ss.Stats = *st
		} else if errs[i] != nil {
			ss.Error = errs[i].Error()
		}
		out.PerShard = append(out.PerShard, ss)
	}
	return out, nil
}

// breakerStates inventories every endpoint circuit the fleet's clients
// guard, in partition then replica-preference order.
func (c *Coordinator) breakerStates() []BreakerState {
	var out []BreakerState
	for _, s := range c.shards {
		if bs, ok := s.(BreakerStater); ok {
			out = append(out, bs.BreakerStates()...)
		}
	}
	return out
}
