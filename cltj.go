// Package cltj is a Go implementation of "Flexible Caching in Trie Joins"
// (Kalinsky, Etsion, Kimelfeld; EDBT 2017): CLFTJ, the Leapfrog Trie Join
// extended with optional, bounded, adhesion-keyed caches derived from a
// tree decomposition that is strongly compatible with the variable order.
//
// The facade covers the common workflows:
//
//	db := cltj.NewDB(cltj.MustRelation("E", 2, edges))
//	q, err := cltj.ParseQuery("E(x,y), E(y,z), E(x,z)")  // or build atoms
//	n, err := cltj.Count(q, db, cltj.Options{})          // CLFTJ, auto TD, all cores
//	n, err = cltj.Count(q, db, cltj.Options{Workers: 1}) // force sequential
//	n, err = cltj.CountLFTJ(q, db, nil)                  // vanilla LFTJ
//	n, err = cltj.CountYTD(q, db, nil)                   // Yannakakis+TD
//
//	stmt, err := cltj.Prepare(q, db, cltj.Options{})     // compile once ...
//	n, err = stmt.Count(ctx)                             // ... run many, cancellable
//	for row, err := range stmt.Rows(ctx) { ... }         // ... or stream the tuples
//
// Lower-level control (explicit TDs, orders, policies, counters) lives in
// the internal packages re-exported through the aliases below; see
// DESIGN.md for the system inventory.
package cltj

import (
	"context"
	"iter"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/factorized"
	"repro/internal/genericjoin"
	"repro/internal/leapfrog"
	"repro/internal/pairwise"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/td"
	"repro/internal/trie"
	"repro/internal/yannakakis"
)

// Re-exported building blocks. The aliases keep one import path for
// applications while the implementation stays in focused packages.
type (
	// Query is a full conjunctive query (no projection).
	Query = cq.Query
	// Atom is one subgoal R(t1,...,tk).
	Atom = cq.Atom
	// Term is an atom argument: variable or constant.
	Term = cq.Term
	// Relation is a sorted, duplicate-free integer relation.
	Relation = relation.Relation
	// DB is a named collection of relations.
	DB = relation.DB
	// TD is an ordered tree decomposition.
	TD = td.TD
	// Plan is a compiled CLFTJ plan (query + TD + order + tries).
	Plan = core.Plan
	// Policy configures CLFTJ's cache behaviour.
	Policy = core.Policy
	// Counters accumulates memory-access and cache statistics.
	Counters = stats.Counters
	// FactorizedSet is a factorized (d-)representation of a result set,
	// as produced by Plan.EvalFactorized.
	FactorizedSet = factorized.Set
	// Engine is a resident query service: one database loaded once, trie
	// indices shared across any number of concurrent queries through a
	// registry, per-query cache policies and engine-lifetime statistics.
	Engine = server.Engine
	// EngineConfig sizes a new Engine (default workers, trie byte
	// budget, plan-cache capacity).
	EngineConfig = server.Config
	// EngineRequest is one query submission to an Engine.
	EngineRequest = server.Request
	// EngineResponse is an Engine's answer to one request.
	EngineResponse = server.Response
	// EngineUpdate is one mutation submission to an Engine: a batch of
	// inserts and deletes applied atomically to a single relation,
	// installing a new version (Engine.Update).
	EngineUpdate = server.UpdateRequest
	// EngineUpdateResult describes the version an update installed.
	EngineUpdateResult = server.UpdateResult
	// EngineStats is the engine-lifetime view served by GET /stats.
	EngineStats = server.EngineStats
	// EngineStmt is a prepared statement over an Engine: one query
	// parsed and compiled once through the engine's plan cache, with
	// ctx-aware Do and Rows executions (Engine.Prepare). The
	// engine variant follows live updates — execution always runs
	// against the current snapshot, re-binding the compiled plan to the
	// new tries (not recompiling it) when the touched relations changed
	// version. For a static database without an Engine, see Prepare.
	EngineStmt = server.Stmt
	// PlanCacheStats reports the engine plan cache's hit/miss/re-bind/
	// eviction history and residency (EngineStats.Plans).
	PlanCacheStats = server.PlanCacheStats
	// RelationStore is a mutable, versioned relation: immutable
	// snapshots advanced by ApplyDelta, with base/delta lineage that
	// lets trie registries patch indices instead of rebuilding them.
	RelationStore = relation.Store
	// RelationVersion is one immutable snapshot of a RelationStore.
	RelationVersion = relation.Version
	// TrieRegistry is a shared, byte-budgeted, LRU-evicting cache of
	// immutable tries keyed by (relation, attribute order).
	TrieRegistry = trie.Registry
	// TrieSource supplies shared tries to plan compilation; a
	// *TrieRegistry implements it.
	TrieSource = leapfrog.TrieSource
)

// Semiring is a commutative semiring for Aggregate (§6 extension).
type Semiring[T any] = core.Semiring[T]

// VarWeight assigns a semiring weight to a (depth, value) pair.
type VarWeight[T any] = core.VarWeight[T]

// Aggregate computes ⊕_{µ∈q(D)} ⊗_d w(d, µ(x_d)) over the plan with
// CLFTJ's caches holding subtree aggregates — the paper's §6 extension
// to general aggregate operators. CountSemiring + UnitWeight recovers
// Count.
func Aggregate[T any](p *Plan, policy Policy, sr Semiring[T], w VarWeight[T]) T {
	return core.Aggregate(p, policy, sr, w)
}

// CountSemiring returns the counting semiring (ℕ, +, ×).
func CountSemiring() Semiring[int64] { return core.CountSemiring() }

// SumProductSemiring returns the sum-product semiring (ℝ, +, ×).
func SumProductSemiring() Semiring[float64] { return core.SumProductSemiring() }

// TropicalSemiring returns the min-plus semiring (ℝ∪{∞}, min, +).
func TropicalSemiring() Semiring[float64] { return core.TropicalSemiring() }

// UnitWeight returns the all-One weight function for sr.
func UnitWeight[T any](sr Semiring[T]) VarWeight[T] { return core.UnitWeight(sr) }

// Eviction modes for bounded caches.
const (
	EvictFIFO = core.EvictFIFO
	EvictNone = core.EvictNone
	EvictLRU  = core.EvictLRU
)

// NewQuery builds a query from atoms.
func NewQuery(atoms ...Atom) *Query { return cq.New(atoms...) }

// ParseQuery reads a query from the conventional comma-separated atom
// syntax, e.g. "E(x,y), E(y,z), R(z, 42)".
func ParseQuery(input string) (*Query, error) { return cq.Parse(input) }

// NewAtom builds an atom whose arguments are all variables.
func NewAtom(rel string, vars ...string) Atom { return cq.NewAtom(rel, vars...) }

// V returns a variable term.
func V(name string) Term { return cq.V(name) }

// C returns a constant term.
func C(v int64) Term { return cq.C(v) }

// NewRelation builds a relation from tuples (copied, sorted, deduped).
func NewRelation(name string, arity int, tuples [][]int64) (*Relation, error) {
	return relation.New(name, arity, tuples)
}

// MustRelation is NewRelation but panics on error.
func MustRelation(name string, arity int, tuples [][]int64) *Relation {
	return relation.MustNew(name, arity, tuples)
}

// NewDB builds a database over the given relations.
func NewDB(rels ...*Relation) *DB { return relation.NewDB(rels...) }

// NewEngine wraps db in a resident query service: tries are built once
// into a shared registry (bounded by cfg.TrieBudget bytes, LRU-evicted
// under pressure) and reused by every subsequent query; Engine.Do is
// safe to call from any number of goroutines. cmd/cltjd serves an
// Engine over HTTP.
func NewEngine(db *DB, cfg EngineConfig) *Engine { return server.NewEngine(db, cfg) }

// NewTrieRegistry returns a shared trie cache bounded to budgetBytes
// resident bytes (0 = unbounded), for use via Options.Tries when
// driving plans directly instead of through an Engine.
func NewTrieRegistry(budgetBytes int64) *TrieRegistry { return trie.NewRegistry(budgetBytes) }

// NewRelationStore wraps a relation as version 0 of a mutable,
// versioned relation. Apply deltas with ApplyDelta; feed each new
// version to a TrieRegistry via Observe so queries over the new
// version reuse patched indices (an Engine does all of this per
// Update).
func NewRelationStore(base *Relation) *RelationStore { return relation.NewStore(base) }

// Options configures the automatic CLFTJ entry points.
type Options struct {
	// Policy is the cache policy (zero value: unbounded caches that
	// store every intermediate result). In parallel runs caches are
	// per worker, so Policy.Capacity bounds each worker's memory: K
	// workers may retain up to K*Capacity entries in total.
	Policy Policy
	// TD forces a specific tree decomposition; nil selects one
	// automatically with the serving planner (greedy), from the query
	// pattern alone, as an Engine does. The paper's §4 cost model is
	// core.CostSelect, which only the figure drivers call.
	TD *TD
	// Order forces a variable order (must be strongly compatible with
	// the TD); nil derives one from the TD.
	Order []string
	// Counters receives memory-access accounting (may be nil).
	// Parallel runs merge per-worker accounting exactly, but the
	// totals depend on the worker count (the root-domain prescan and
	// per-worker cache misses add accesses a sequential run avoids) —
	// set Workers to 1 to reproduce the paper's sequential
	// memory-traffic numbers on any machine.
	Counters *Counters
	// Workers shards a count or aggregate over this many goroutines by
	// partitioning the first variable's domain: 0 uses one worker per
	// core, 1 forces the sequential path, K > 1 runs K workers with
	// private caches and counters. Counts are bit-identical to the
	// sequential engine at any setting. An enumeration (Eval,
	// Stmt.Rows) runs on one worker at every setting and reuses the
	// emitted slice. Overrides Policy.Workers when non-zero.
	Workers int
	// Tries is an optional shared trie source (see NewTrieRegistry):
	// plan compilation draws indices from it instead of building
	// per-query tries, so repeated queries skip trie construction
	// entirely. nil builds private tries, as before.
	Tries TrieSource
}

// policy resolves the effective cache/execution policy of the options.
func (o Options) policy() Policy {
	pol := o.Policy
	if o.Workers != 0 {
		pol.Workers = o.Workers
	}
	return pol
}

// buildWorkersOf maps the facade's Workers knob (0: one per core) to
// the builders' convention (0/1: sequential; < 0: one per core).
func buildWorkersOf(workers int) int {
	if workers == 0 {
		return -1
	}
	return workers
}

// NewPlan compiles a CLFTJ plan per the options (automatic TD selection
// by the greedy serving planner when opts.TD is nil). Options.Workers
// also bounds the goroutines each private trie build may use during
// compilation (0: one per core).
func NewPlan(q *Query, db *DB, opts Options) (*Plan, error) {
	if opts.TD == nil {
		return core.AutoPlan(q, db, core.AutoOptions{
			Counters:     opts.Counters,
			Tries:        opts.Tries,
			BuildWorkers: buildWorkersOf(opts.Workers),
		})
	}
	order := opts.Order
	if order == nil {
		qvars := q.Vars()
		for _, xi := range opts.TD.CompatibleOrder(len(qvars)) {
			order = append(order, qvars[xi])
		}
	}
	return core.NewPlanWith(q, db, opts.TD, order, opts.Counters, opts.Tries)
}

// Count evaluates |q(D)| with CLFTJ. With opts.Workers unset (or 0) the
// join is sharded over one worker per core; the count is bit-identical
// to a sequential run regardless of the worker count.
func Count(q *Query, db *DB, opts Options) (int64, error) {
	plan, err := NewPlan(q, db, opts)
	if err != nil {
		return 0, err
	}
	res, err := plan.CountParallelCtx(context.Background(), opts.policy())
	return res.Count, err
}

// Eval enumerates q(D) with CLFTJ; emit receives assignments aligned
// with the plan's variable order and may return false to stop. It
// returns the order used. The enumeration runs on one worker whatever
// Options.Workers says, and it reuses the emitted slice (copy to
// retain). Tuples stream in the lexicographic order of the plan's
// variable order under every cache policy, and a false from emit stops
// the join. For an iterator with cancellation, see Prepare and
// Stmt.Rows.
func Eval(q *Query, db *DB, opts Options, emit func(mu []int64) bool) ([]string, error) {
	plan, err := NewPlan(q, db, opts)
	if err != nil {
		return nil, err
	}
	_, err = plan.EvalParallelCtx(context.Background(), opts.policy(), emit)
	return plan.Order(), err
}

// Prepare compiles q against db once and returns a statement that can
// be executed any number of times — the paper's build-once/run-many
// plan contract with a context-aware API on top. For a live, updatable
// database use Engine.Prepare instead (an EngineStmt follows updates
// through the engine's plan cache; a Stmt is pinned to db as given).
func Prepare(q *Query, db *DB, opts Options) (*Stmt, error) {
	plan, err := NewPlan(q, db, opts)
	if err != nil {
		return nil, err
	}
	return &Stmt{plan: plan, opts: opts}, nil
}

// Stmt is a prepared query over a static database: parse, TD selection
// and plan compilation are paid once in Prepare, and each execution
// runs the compiled plan under the prepare-time options. Concurrent
// executions are safe when opts.Counters is nil (a shared counters
// sink would race; give each goroutine its own statement otherwise).
type Stmt struct {
	plan *Plan
	opts Options
}

// Plan exposes the compiled plan (for EvalFactorized and the other
// lower-level entry points).
func (s *Stmt) Plan() *Plan { return s.plan }

// Order returns the plan's variable order; Rows assignments align with
// it.
func (s *Stmt) Order() []string { return s.plan.Order() }

// Count evaluates |q(D)|, sharded per the prepare-time Workers option,
// unwinding cooperatively when ctx is cancelled or times out.
func (s *Stmt) Count(ctx context.Context) (int64, error) {
	res, err := s.plan.CountParallelCtx(ctx, s.opts.policy())
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// Rows streams q(D) one assignment at a time in the plan's variable
// order; each yielded slice is a fresh copy the consumer may retain.
// The first row arrives before the join finishes, breaking out of the
// loop stops the scan, and cancelling ctx ends the stream with a final
// (nil, ctx.Err()) pair after the rows already yielded:
//
//	for row, err := range stmt.Rows(ctx) {
//	    if err != nil { return err }
//	    use(row)
//	}
func (s *Stmt) Rows(ctx context.Context) iter.Seq2[[]int64, error] {
	return func(yield func([]int64, error) bool) {
		stopped := false
		_, err := s.plan.EvalParallelCtx(ctx, s.opts.policy(), func(mu []int64) bool {
			if !yield(append([]int64(nil), mu...), nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// CountLFTJ evaluates |q(D)| with vanilla LFTJ under the query's natural
// variable order: CLFTJ over the one-bag TD with caching disabled, which
// is LFTJ exactly (§3.2). counters may be nil.
func CountLFTJ(q *Query, db *DB, counters *Counters) (int64, error) {
	plan, err := core.NewPlan(q, db, td.Singleton(len(q.Vars())), q.Vars(), counters)
	if err != nil {
		return 0, err
	}
	return plan.Count(Policy{Disabled: true}).Count, nil
}

// CountYTD evaluates |q(D)| with Yannakakis over an automatically
// selected tree decomposition. counters may be nil.
func CountYTD(q *Query, db *DB, counters *Counters) (int64, error) {
	tree, _ := td.Select(q, td.Options{}, td.CostConfig{})
	return yannakakis.Count(q, db, tree, counters)
}

// CountPairwise evaluates |q(D)| with the traditional pairwise hash-join
// baseline. counters may be nil.
func CountPairwise(q *Query, db *DB, counters *Counters) (int64, error) {
	res, err := pairwise.Count(q, db, counters)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// CountGenericJoin evaluates |q(D)| with the hash-based NPRR/GenericJoin
// worst-case-optimal algorithm [17,18]. counters may be nil.
func CountGenericJoin(q *Query, db *DB, counters *Counters) (int64, error) {
	return genericjoin.Count(q, db, counters)
}

// EnumerateTDs returns candidate ordered tree decompositions of q,
// biased toward small adhesions (§4).
func EnumerateTDs(q *Query) []*TD {
	return td.Enumerate(q, td.Options{})
}

// NewTD assembles an ordered tree decomposition from bags of variable
// indices (per Query.VarIndex) and parent pointers (-1 for the root).
// Validate it against a query with TD.Validate.
func NewTD(bags [][]int, parent []int) (*TD, error) {
	return td.New(bags, parent)
}
