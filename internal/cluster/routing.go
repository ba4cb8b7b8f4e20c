// Package cluster is the distributed scatter–gather serving tier over
// the resident query engine: a partitioner that hash-splits a database
// across N independent shard engines, a small shard protocol spoken
// over the daemon's HTTP/JSON surface (Client), and a Coordinator that fans queries out and merges
// the per-shard answers with single-engine semantics — counts and
// aggregates merged exactly, eval samples and NDJSON streams merged in
// root-key order so the combined output is byte-identical to one engine
// serving the union, and stats.Counters folded with the same exact
// Merge the in-process parallel engines use.
//
// The partitioning rule is the paper's root-domain sharding (the PR 1
// parallel engine) lifted across processes: every relation is hash-
// partitioned on its first attribute, so a query whose atoms all lead
// with one variable x decomposes by x's value — the tuples matching any
// x = v, across all atoms, live on exactly one shard, and the union of
// the shard answers is exactly the single-engine answer with no
// cross-shard duplicates. The Routing descriptor says which queries
// decompose this way (and which single shard answers a constant-led
// query); anything else is refused with ErrNotShardable rather than
// silently answered wrong.
package cluster

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/relation"
	"repro/internal/server"
)

// ShardOf maps an attribute value to its shard in an n-shard cluster:
// a splitmix64 finalizer over the value, reduced mod n. The mix is part
// of the on-the-wire contract — the partitioner, the update router and
// every coordinator must agree on it — so it is fixed here and
// documented in DESIGN.md, not configurable.
func ShardOf(v int64, n int) int {
	x := uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Routing is the cluster's partitioning descriptor: what a coordinator
// must know to route queries and updates. Every relation is partitioned
// on attribute 0 (the query-independent first attribute) by ShardOf, so
// the shard count is the whole descriptor.
type Routing struct {
	// Shards is the number of partitions (N ≥ 1).
	Shards int
}

// Partition hash-partitions every relation of db on its first attribute
// into n disjoint sub-relations: shard i's database holds, for each
// relation R, exactly the tuples t with ShardOf(t[0], n) == i, in the
// same lexicographic order as in R. Empty partitions are kept as empty
// relations so every shard compiles every query. Relations of arity 0
// cannot be partitioned and are refused.
func Partition(db *relation.DB, n int) ([]*relation.DB, Routing, error) {
	if n < 1 {
		return nil, Routing{}, fmt.Errorf("cluster: need at least 1 shard, got %d", n)
	}
	out := make([]*relation.DB, n)
	for i := range out {
		out[i] = relation.NewDB()
	}
	for _, name := range db.Names() {
		r, err := db.Get(name)
		if err != nil {
			continue
		}
		arity := r.Arity()
		if arity == 0 {
			return nil, Routing{}, fmt.Errorf("cluster: cannot partition arity-0 relation %q on its first attribute", name)
		}
		parts := make([][]int64, n)
		data := r.Data()
		for off := 0; off < len(data); off += arity {
			s := ShardOf(data[off], n)
			parts[s] = append(parts[s], data[off:off+arity]...)
		}
		for i := range out {
			// A filtered subsequence of a sorted duplicate-free array is
			// itself sorted and duplicate-free, so the flat slice can be
			// wrapped directly.
			pr, err := relation.FromSorted(name, arity, parts[i])
			if err != nil {
				return nil, Routing{}, fmt.Errorf("cluster: partitioning %s: %w", name, err)
			}
			out[i].Put(pr)
		}
	}
	return out, Routing{Shards: n}, nil
}

// Keep partitions db across n shards and returns only shard i's
// database — the shard-daemon boot path (cltjd -shard i/n), where every
// shard loads the same dataset files and keeps its own slice.
func Keep(db *relation.DB, i, n int) (*relation.DB, error) {
	if i < 0 || i >= n {
		return nil, fmt.Errorf("cluster: shard index %d out of range for %d shards", i, n)
	}
	dbs, _, err := Partition(db, n)
	if err != nil {
		return nil, err
	}
	return dbs[i], nil
}

// RoutePlan is the routing decision for one query: the shards that can
// contribute to it, and the common leading variable the merge orders by.
type RoutePlan struct {
	// Var is the variable leading every atom — the partition variable the
	// eval/stream merges key on. Empty for constant-led queries routed to
	// a single shard.
	Var string
	// Shards lists the contributing shard indices, ascending. Every other
	// shard provably holds no tuple that could join into a result.
	Shards []int
}

// Route decides which shards can contribute to q under this
// partitioning, or refuses with ErrNotShardable:
//
//   - Every atom leads with the same variable x: each result's tuples,
//     across all atoms, live on the one shard ShardOf(x) — all shards
//     contribute, disjointly, and the merge is exact.
//   - Every atom leads with a constant, all on one shard: that shard
//     holds every contributing tuple and answers alone.
//   - Anything else (mixed leading terms, distinct leading variables,
//     constants on different shards): results would need tuples from
//     different shards' partitions, which scatter–gather over disjoint
//     partitions cannot see. Refused, never silently partial.
func (r Routing) Route(q *cq.Query) (RoutePlan, error) {
	if len(q.Atoms) == 0 {
		return RoutePlan{}, fmt.Errorf("%w: query has no atoms", ErrNotShardable)
	}
	leadVar := ""
	constShard := -1
	vars, consts := 0, 0
	for _, a := range q.Atoms {
		if len(a.Args) == 0 {
			return RoutePlan{}, fmt.Errorf("%w: atom %s has no arguments", ErrNotShardable, a.String())
		}
		lead := a.Args[0]
		if lead.IsVar() {
			vars++
			if leadVar == "" {
				leadVar = lead.Var
			} else if leadVar != lead.Var {
				return RoutePlan{}, fmt.Errorf("%w: atoms lead with distinct variables %q and %q", ErrNotShardable, leadVar, lead.Var)
			}
			continue
		}
		consts++
		s := ShardOf(lead.Const, r.Shards)
		if constShard == -1 {
			constShard = s
		} else if constShard != s {
			return RoutePlan{}, fmt.Errorf("%w: leading constants land on different shards", ErrNotShardable)
		}
	}
	switch {
	case consts == 0:
		all := make([]int, r.Shards)
		for i := range all {
			all[i] = i
		}
		return RoutePlan{Var: leadVar, Shards: all}, nil
	case vars == 0:
		return RoutePlan{Shards: []int{constShard}}, nil
	default:
		// A mixed query's results pair the constant-led atoms' tuples
		// (resident on constShard) with leading-variable values hashing
		// anywhere — only a single engine over the union sees both.
		return RoutePlan{}, fmt.Errorf("%w: atoms mix leading constants and leading variable %q", ErrNotShardable, leadVar)
	}
}

// SplitUpdate routes one delta the same way the partitioner routed the
// base data: each insert/delete tuple goes to the shard its first
// attribute hashes to. The returned slice has one request per shard
// (index-aligned); shards whose slots carry no tuples are not touched
// by the update fan-out.
func SplitUpdate(req server.UpdateRequest, n int) ([]server.UpdateRequest, error) {
	out := make([]server.UpdateRequest, n)
	for i := range out {
		out[i].Relation = req.Relation
	}
	route := func(tuples [][]int64, pick func(r *server.UpdateRequest) *[][]int64) error {
		for _, t := range tuples {
			if len(t) == 0 {
				return fmt.Errorf("cluster: cannot route empty tuple for relation %q", req.Relation)
			}
			r := &out[ShardOf(t[0], n)]
			dst := pick(r)
			*dst = append(*dst, t)
		}
		return nil
	}
	if err := route(req.Inserts, func(r *server.UpdateRequest) *[][]int64 { return &r.Inserts }); err != nil {
		return nil, err
	}
	if err := route(req.Deletes, func(r *server.UpdateRequest) *[][]int64 { return &r.Deletes }); err != nil {
		return nil, err
	}
	return out, nil
}
