// Package server hosts CLFTJ as a resident query service: an Engine
// loads a dataset once, keeps the trie indices in a shared
// least-recently-used registry bounded by a global byte budget, and
// answers any number of concurrent count/eval/aggregate queries. Each
// query is compiled through the ordinary Plan facade against the shared
// registry, runs on the parallel engine with its own cache policy, and
// accounts into private counters that are folded into engine-lifetime
// totals when it finishes — so the amortization the paper's flexible
// caches exploit within one query (§3, §5.3.3) extends across the whole
// query stream: load once, index once, answer many.
package server

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/faults"
	"repro/internal/leapfrog"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trie"
)

// Config sizes a new Engine.
type Config struct {
	// Workers is the default per-query parallelism of counts and
	// aggregates when a request does not set its own: 0 uses one worker
	// per core, 1 forces sequential. Eval and stream run on one worker
	// at every setting. Counts, eval samples and streamed rows are
	// identical at every setting. A request may ask for more workers,
	// up to this or the CPU count, whichever is larger.
	Workers int
	// TrieBudget bounds the registry's resident trie bytes, shared
	// across all queries (0 = unbounded). Under pressure the least
	// recently used index orders are evicted first.
	TrieBudget int64
	// MaxTuples caps the tuples an eval response carries when the
	// request does not set its own limit (0: DefaultMaxTuples). The
	// count is always exact; only the sample is capped. Past the cap the
	// run counts instead of enumerating, so a larger cap costs the rows
	// it adds, not the count.
	MaxTuples int
	// CompactFraction overrides the patch-vs-rebuild crossover of the
	// relation stores (0: relation.DefaultCompactFraction): once a
	// relation's cumulative delta exceeds this fraction of its base
	// size, the next version compacts and its indices are rebuilt in
	// full instead of patched.
	CompactFraction float64
	// PlanCache bounds the compiled-plan cache (entries; 0:
	// DefaultPlanCacheSize, negative: disabled, so every request pays
	// parse + TD selection + plan compilation — the cold arm behind
	// benchmark/'s server.do_cold_us). Plans are keyed by the canonical
	// query text; the snapshot is a binding, not a key component. An
	// update unbinds exactly the plans over the relation it touched —
	// their superseded tries are released, their shapes stay — and the
	// next read re-binds to the new snapshot's tries without
	// re-planning, after a compaction too.
	// Note the cap is entries, not bytes: a bound plan over
	// constant-specialized atoms retains their private derived tries
	// (selections, so usually small) outside the TrieBudget accounting —
	// lower PlanCache to bound that retention on constant-heavy
	// workloads.
	PlanCache int
	// MaxPrepared caps the prepared-statement registry (0:
	// DefaultMaxPrepared). Prepare fails once the cap is reached —
	// statements are explicit handles a client must Close, so the
	// error surfaces a client-side leak instead of letting the
	// registry grow without bound.
	MaxPrepared int
	// DataDir, when non-empty, makes the engine persistent: relation
	// snapshots, per-relation write-ahead logs, and trie index files
	// live in this directory (format in docs/FORMAT.md). Only OpenEngine
	// consults it — a populated directory boots warm (snapshots are
	// mmap'd and the WALs replayed; the original dataset is not re-read)
	// and every applied update is durable before it is acknowledged.
	// NewEngine ignores DataDir and always builds a memory-only engine.
	DataDir string

	// faults threads a fault injector through the engine's I/O: the
	// store's file operations (WAL appends/fsyncs, snapshot writes) and
	// the registry's byte budget (site "registry/pressure" shrinks the
	// resident tries to zero before a query executes, forcing rebuilds).
	// Only the package's tests set it; nil is inert.
	faults *faults.Injector
}

// DefaultMaxTuples is the eval response cap when neither the request
// nor the config names one.
const DefaultMaxTuples = 100

// DefaultMaxPrepared is the prepared-statement registry cap when the
// config does not name one.
const DefaultMaxPrepared = 1024

// Engine is a resident query service over one versioned database. All
// methods are safe for concurrent use. Relations are mutated only
// through Update, which installs a new immutable version: every query
// takes a consistent snapshot of all relations at entry and answers
// from it, bit-identical to a fresh engine loaded at that snapshot,
// while updates proceed concurrently.
type Engine struct {
	reg *trie.Registry
	cfg Config

	// verMu guards the snapshot swap: the current db, the version
	// stores, and the epoch tracker move together under it, so a query's
	// (snapshot, entry epoch) pair is atomic with respect to updates.
	// It is held only for pointer swaps and epoch bookkeeping — never
	// across a delta merge — so query admission cannot stall behind a
	// large update.
	verMu    sync.Mutex
	db       *relation.DB
	stores   map[string]*relation.Store
	versions map[string]relation.Version // versions installed in db (not merely applied)
	epochs   epochs

	// updateMu serializes Update calls: the O(n + k) merge runs under it
	// (outside verMu, concurrently with query admission), and the
	// version-install step that follows stays ordered with the merge.
	updateMu sync.Mutex

	// plans caches compiled plans across requests (nil when disabled);
	// see planKey for how an entry outlives the snapshot it was bound to.
	plans *planCache

	// stmtMu guards the prepared-statement registry (HTTP query-by-id;
	// in-process callers hold the *Stmt directly).
	stmtMu  sync.Mutex
	stmts   map[string]*Stmt
	stmtSeq uint64

	// pdb is the persistence layer (nil for memory-only engines): it
	// owns the data directory's snapshots, WALs, and trie files, and
	// the mmap'd pages live relations and indices alias. Engine.Close
	// releases it after queries drain.
	pdb *store.DB

	// readOnly, when non-nil, marks the engine degraded: a durability
	// failure (WAL append, snapshot rewrite) flipped it, updates are
	// refused with ErrReadOnly, and reads keep serving the last durable
	// snapshot. Sticky until restart — the failed write left the WAL in
	// an unknown state, so only a fresh boot (which re-verifies and
	// recovers the log) may accept writes again.
	readOnly atomic.Pointer[ReadOnlyState]

	life    stats.Locked
	queries atomic.Int64
	updates atomic.Int64
	closed  atomic.Bool
	started time.Time
}

// NewEngine wraps db in a resident, memory-only engine (Config.DataDir
// is ignored; see OpenEngine for persistence). The db (and its
// relations) must not be mutated by the caller afterwards — the registry
// keys cached tries by relation identity and all mutation must go
// through Update.
func NewEngine(db *relation.DB, cfg Config) *Engine {
	return newEngine(db, cfg, nil)
}

// newEngine is the shared constructor: with stores == nil every relation
// in db starts a fresh version chain at 0; otherwise stores supplies
// prebuilt version chains (the warm-boot path — db must hold each
// store's current Rel) and their patched versions are Observed so the
// registry can serve them by patching the persisted base.
func newEngine(db *relation.DB, cfg Config, stores map[string]*relation.Store) *Engine {
	planCap := cfg.PlanCache
	if planCap == 0 {
		planCap = DefaultPlanCacheSize
	}
	e := &Engine{
		db:       db,
		cfg:      cfg,
		started:  time.Now(),
		stores:   make(map[string]*relation.Store),
		versions: make(map[string]relation.Version),
		plans:    newPlanCache(planCap),
		stmts:    make(map[string]*Stmt),
		reg:      trie.NewRegistry(cfg.TrieBudget),
	}
	// Cold index builds use the same parallelism budget as the queries
	// they unblock.
	e.reg.SetBuildWorkers(e.buildWorkers())
	// A cached binding embeds the registry tries it was bound to, so a
	// byte-budget eviction must also unbind the plans pinning that index
	// — otherwise TrieBudget would stop bounding resident trie memory
	// (evicted-but-pinned copies) and the next compile over the relation
	// would build a duplicate. The cache tracks the exact (relation,
	// order) registry entries each binding embeds, so only plans pinning
	// the evicted index re-bind — plans over the relation's other,
	// still-resident orders stay bound. (A bind racing the eviction may
	// still cache one binding holding the evicted trie; it is a bounded,
	// self-healing overshoot.)
	e.reg.SetEvictHook(func(rel *relation.Relation, perm string) {
		e.plans.invalidateEmbedding(rel, perm)
	})
	if stores == nil {
		for _, name := range db.Names() {
			r, err := db.Get(name)
			if err != nil {
				continue
			}
			st := relation.NewStore(r)
			if cfg.CompactFraction != 0 {
				st.SetCompactFraction(cfg.CompactFraction)
			}
			e.stores[name] = st
			e.versions[name] = st.Version()
		}
	} else {
		for name, st := range stores {
			v := st.Version()
			e.stores[name] = st
			e.versions[name] = v
			e.reg.Observe(v)
		}
	}
	return e
}

// OpenEngine builds an engine honoring cfg.DataDir. With no data
// directory it simply loads and wraps (warm == false, Close is a
// no-op). Otherwise:
//
//   - A populated directory boots warm: every persisted relation is
//     opened from its verified, mmap'd snapshot, its WAL is replayed
//     through a fresh version chain (a compaction during replay rolls
//     the snapshot forward), and load is never called — the original
//     dataset files are not read. The registry is given the directory's
//     trie files as an open-from-disk path, so the first query needs no
//     trie builds either.
//   - An empty directory boots cold: load supplies the database, every
//     relation is snapshotted at version 0, and subsequent updates are
//     durable (WAL append before acknowledgement) while full trie
//     builds are written behind for the next boot.
//
// Corrupt snapshots or WALs make OpenEngine fail rather than serve the
// data (torn WAL tails from a crash mid-append are recovered, not
// failed). The caller must Close the engine after its queries drain —
// live relations alias the mapped files.
func OpenEngine(cfg Config, load func() (*relation.DB, error)) (e *Engine, warm bool, err error) {
	if cfg.DataDir == "" {
		db, err := load()
		if err != nil {
			return nil, false, err
		}
		return NewEngine(db, cfg), false, nil
	}
	pdb, err := store.Open(cfg.DataDir)
	if err != nil {
		return nil, false, err
	}
	pdb.SetFaults(cfg.faults)
	defer func() {
		if err != nil {
			pdb.Close()
		}
	}()
	names, err := pdb.Relations()
	if err != nil {
		return nil, false, err
	}

	var db *relation.DB
	var stores map[string]*relation.Store
	if warm = len(names) > 0; warm {
		db = relation.NewDB()
		stores = make(map[string]*relation.Store, len(names))
		for _, name := range names {
			st, err := bootRelation(pdb, name, cfg)
			if err != nil {
				return nil, false, err
			}
			stores[name] = st
			db.Put(st.Version().Rel)
		}
	} else {
		if db, err = load(); err != nil {
			return nil, false, err
		}
		for _, name := range db.Names() {
			r, gerr := db.Get(name)
			if gerr != nil {
				continue
			}
			if err := pdb.SaveRelation(name, r, 0); err != nil {
				return nil, false, err
			}
		}
	}

	e = newEngine(db, cfg, stores)
	e.pdb = pdb
	// Misses try the directory's index files before building, and full
	// builds are written behind so the next boot can open them. SaveTrie
	// ignores non-persisted relations (patched versions) and swallows
	// write failures — index files are an optimization.
	e.reg.SetOpener(pdb.OpenTrie)
	e.reg.SetBuildHook(func(rel *relation.Relation, perm []int, t *trie.Trie) {
		pdb.SaveTrie(rel, perm, t)
	})
	return e, warm, nil
}

// bootRelation opens one persisted relation and replays its WAL into a
// fresh version chain. If replay crossed the compaction crossover, the
// snapshot is rolled forward to the compacted state (fresh generation,
// reset WAL) so the next boot replays nothing.
func bootRelation(pdb *store.DB, name string, cfg Config) (*relation.Store, error) {
	rel, num, records, found, err := pdb.OpenRelation(name, -1)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("server: relation %q disappeared from %s during boot", name, cfg.DataDir)
	}
	mkStore := func(base *relation.Relation, at uint64) *relation.Store {
		st := relation.NewStoreAt(base, at)
		if cfg.CompactFraction != 0 {
			st.SetCompactFraction(cfg.CompactFraction)
		}
		return st
	}
	st := mkStore(rel, num)
	for i, r := range records {
		if _, _, err := st.ApplyDelta(r.Inserts, r.Deletes); err != nil {
			return nil, fmt.Errorf("server: replaying %s wal record %d: %w", name, i, err)
		}
	}
	if v := st.Version(); v.Base != rel {
		// Replay compacted: persist the compacted state as the new base
		// so boots converge instead of replaying an ever-longer log.
		if err := pdb.SaveRelation(name, v.Rel, v.Num); err != nil {
			return nil, err
		}
		st = mkStore(v.Rel, v.Num)
	}
	return st, nil
}

// Close releases the persistence layer: WAL handles and every mmap'd
// snapshot. It must run only after in-flight queries have drained (live
// iterators read the mapped pages directly); for memory-only engines
// (nil persistent store) it is a no-op. Close is idempotent — the first
// call releases, every later call returns nil — so layered owners (a
// daemon's shutdown path and a defer, a shard harness tearing down a
// fleet) can each close defensively. The engine must not be used after
// the first Close.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	if e.pdb == nil {
		return nil
	}
	return e.pdb.Close()
}

// DB returns the engine's current database snapshot.
func (e *Engine) DB() *relation.DB {
	e.verMu.Lock()
	defer e.verMu.Unlock()
	return e.db
}

// snapshot atomically takes the current database and enters the query
// into the epoch tracker, pinning every relation version it can see.
func (e *Engine) snapshot() (*relation.DB, uint64) {
	e.verMu.Lock()
	defer e.verMu.Unlock()
	return e.db, e.epochs.enter()
}

// snapshotFor is snapshot plus the version vector of the given (sorted)
// relation names, aligned with them, under the same verMu hold: the
// vector a query assembles always describes exactly the snapshot it will
// execute against, atomically with respect to Update's install step.
// Relations the engine does not store read as version 0 (such a query
// fails to compile and reports nothing).
func (e *Engine) snapshotFor(names []string) (*relation.DB, []uint64, uint64) {
	vec := make([]uint64, len(names))
	e.verMu.Lock()
	defer e.verMu.Unlock()
	for i, name := range names {
		vec[i] = e.versions[name].Num
	}
	return e.db, vec, e.epochs.enter()
}

// VersionNumbers returns the current version number of each named
// relation (unknown names are omitted), atomically with respect to
// Update's install step. A distributed coordinator asks once per shard
// it knows nothing about; from then on it sends the vector it expects
// with each query (Request.IfVersions) and learns of a move from the
// refusal. With names == nil, every relation's version is returned.
func (e *Engine) VersionNumbers(names []string) map[string]uint64 {
	e.verMu.Lock()
	defer e.verMu.Unlock()
	if names == nil {
		nums := make(map[string]uint64, len(e.versions))
		for name, v := range e.versions {
			nums[name] = v.Num
		}
		return nums
	}
	nums := make(map[string]uint64, len(names))
	for _, name := range names {
		if v, ok := e.versions[name]; ok {
			nums[name] = v.Num
		}
	}
	return nums
}

// finish exits the query's epoch and releases any superseded versions
// whose pins drained with it.
func (e *Engine) finish(ep uint64) {
	e.verMu.Lock()
	reclaim := e.epochs.exit(ep)
	e.verMu.Unlock()
	e.release(reclaim)
}

func (e *Engine) release(rels []*relation.Relation) {
	for _, rel := range rels {
		e.reg.Release(rel)
	}
}

// Registry returns the shared trie registry.
func (e *Engine) Registry() *trie.Registry { return e.reg }

// buildWorkers resolves the trie-build parallelism from the engine
// config: the configured per-query worker count, with the "one per
// core" default rendered as the builders' per-core sentinel.
func (e *Engine) buildWorkers() int {
	if e.cfg.Workers == 0 {
		return -1
	}
	return e.cfg.Workers
}

// policyOf resolves a request's cache/execution policy. A request's
// Workers is clamped to the engine's or the CPU count, whichever is
// larger: each worker is a goroutine with its own runner and caches.
func (e *Engine) policyOf(req Request) (core.Policy, error) {
	pol := core.Policy{
		Capacity:         req.CacheCapacity,
		SupportThreshold: req.CacheSupport,
		Disabled:         req.NoCache,
		Workers:          min(req.Workers, max(e.cfg.Workers, runtime.NumCPU())),
	}
	if pol.Workers == 0 {
		pol.Workers = e.cfg.Workers
	}
	switch req.CacheEviction {
	case "", "fifo":
		pol.Eviction = core.EvictFIFO
	case "none":
		pol.Eviction = core.EvictNone
	case "lru":
		pol.Eviction = core.EvictLRU
	default:
		return pol, fmt.Errorf("server: unknown cache_eviction %q (want fifo, none or lru)", req.CacheEviction)
	}
	return pol, nil
}

// Do executes one request under context.Background() — the
// uncancellable entry point kept for existing callers. New code should
// prefer DoCtx.
func (e *Engine) Do(req Request) (*Response, error) {
	return e.DoCtx(context.Background(), req)
}

// DoCtx executes one request. It is safe to call from any number of
// goroutines, concurrently with Update: the query takes one consistent
// snapshot of every relation at entry (pinning those versions against
// reclamation until it finishes), while CLFTJ caches and counters are
// private per call — so results are bit-identical to a fresh sequential
// run of the same query against the same snapshot. Compiled plans are
// drawn from the engine's plan cache (immutable, so shared across
// concurrent requests) and repeated queries skip TD selection and plan
// compilation entirely; Stats.PlanCached reports which path a response
// took. Cancelling ctx — or exceeding req.TimeoutMS — unwinds the join
// cooperatively within leapfrog.CancelCheckEvery iterator advances per
// worker and returns ctx's error.
func (e *Engine) DoCtx(ctx context.Context, req Request) (*Response, error) {
	s, req, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	return s.exec(ctx, req)
}

// resolve returns the statement a request executes and the request with
// the statement's defaults merged under it: the registered statement
// req.Stmt names, or a transient one parsed from req.Query. (By value:
// a transient statement then never reaches the heap.)
func (e *Engine) resolve(req Request) (Stmt, Request, error) {
	if req.Stmt == "" {
		q, err := cq.Parse(req.Query)
		if err != nil {
			return Stmt{}, req, err
		}
		return Stmt{e: e, q: q, text: q.String(), names: RelNames(q)}, req, nil
	}
	if req.Query != "" {
		return Stmt{}, req, fmt.Errorf("server: request names both a query and prepared statement %q", req.Stmt)
	}
	s, err := e.Stmt(req.Stmt)
	if err != nil {
		return Stmt{}, req, err
	}
	return *s, s.merge(req), nil
}

// RelNames returns the sorted distinct relation names q references —
// the relations whose versions form the vector a plan binding is built
// at (and a coordinator's snapshot handshake).
func RelNames(q *cq.Query) []string {
	seen := make(map[string]bool, len(q.Atoms))
	names := make([]string, 0, len(q.Atoms))
	for _, a := range q.Atoms {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			names = append(names, a.Rel)
		}
	}
	sort.Strings(names)
	return names
}

// planFor resolves the compiled plan for the execution x, whose
// snapshot is already pinned: a plan-cache hit returns the resident plan
// attached to the request's counters; an entry whose binding is missing
// or belongs to another snapshot is re-bound to this one (tries
// re-acquired through the registry, nothing re-planned); a miss
// compiles. Binding and compiling happen outside the cache's lock and
// charge their work — including any shared trie builds or patches — to
// the requester; what is cached carries a nil sink.
func (e *Engine) planFor(s *Stmt, x *execution) (err error) {
	bopts := leapfrog.BuildOpts{Counters: x.c, Tries: e.reg, Workers: e.buildWorkers()}
	if p, bound := e.plans.get(s.text, x.vec); p != nil {
		x.cached = true
		if bound {
			x.plan = p.WithCounters(x.c)
			return nil
		}
		x.rebound = true
		if x.plan, err = p.Rebind(x.db, bopts); err != nil {
			return err
		}
		e.plans.rebound(s.text, x.plan.WithCounters(nil), x.vec, x.plan.Embedded())
		return nil
	}
	x.plan, err = core.AutoPlan(s.q, x.db, core.AutoOptions{
		Counters:     x.c,
		Tries:        bopts.Tries,
		BuildWorkers: bopts.Workers,
	})
	if err != nil {
		return err
	}
	e.plans.put(s.text, x.plan.WithCounters(nil), s.names, x.vec, x.plan.Embedded())
	return nil
}

// execution is what the request prologue hands an execution: the
// resolved policy, the pinned snapshot and the plan bound to it and to
// the request's private counters.
type execution struct {
	pol  core.Policy
	db   *relation.DB
	vec  []uint64 // versions of the statement's relations at db
	plan *core.Plan
	// cached: selection and compile were skipped; rebound: the cached
	// shape had to be bound to this snapshot first.
	cached, rebound bool
	// c is the request's private accounting. Its own allocation, not a
	// field by value: a compiled plan keeps the counters it was compiled
	// against reachable for as long as the plan cache keeps the plan, and
	// must not drag the snapshot and the request along.
	c *stats.Counters
}

// run is the one request prologue and epilogue around every execution,
// buffered or streamed: resolve the policy, arm timeout_ms, pin the
// snapshot, hold it to the request's if_versions, plan (cached or
// compiled) against private counters, hand over to body, and account.
// Lifetime counters absorb the work actually performed even when the
// execution fails or times out (a cancelled query's trie builds and
// accesses happened; GET /stats must not diverge from the registry's
// view). Only Queries stays success-only — a body counts its completed
// request itself (Prepare's compile is none).
func (s *Stmt) run(ctx context.Context, req Request, body func(ctx context.Context, x execution) error) error {
	e := s.e
	pol, err := e.policyOf(req)
	if err != nil {
		return err
	}
	x := execution{pol: pol, c: new(stats.Counters)}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	var ep uint64
	x.db, x.vec, ep = e.snapshotFor(s.names)
	defer e.finish(ep)
	if req.IfVersions != nil {
		// Checked under the pin the execution runs at, so an update
		// installing meanwhile cannot slip between check and run.
		for i, name := range s.names {
			if want, ok := req.IfVersions[name]; ok && want != x.vec[i] {
				have := make(map[string]uint64, len(s.names))
				for j, n := range s.names {
					have[n] = x.vec[j]
				}
				return &VersionMismatch{Have: have}
			}
		}
	}
	defer e.life.Merge(x.c)
	if err := e.planFor(s, &x); err != nil {
		return err
	}
	return body(ctx, x)
}

// exec answers one buffered request: count, eval or aggregate under the
// shared prologue.
func (s *Stmt) exec(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	e := s.e
	// Forced eviction pressure: an armed "registry/pressure" fault
	// shrinks the resident tries to zero before this query plans, so the
	// execution pays cold rebuilds — correctness must not depend on a
	// warm registry.
	if e.cfg.faults.Fire("registry/pressure") != nil {
		e.reg.Shrink(0)
	}
	var out *Response
	err := s.run(ctx, req, func(ctx context.Context, x execution) error {
		plan, pol := x.plan, x.pol
		resp := &Response{Order: plan.Order(), Versions: make(map[string]uint64, len(s.names))}
		for i, name := range s.names {
			resp.Versions[name] = x.vec[i]
		}
		resp.Stats.PlanCached, resp.Stats.PlanRebound = x.cached, x.rebound

		var err error

		switch req.Mode {
		case "", "count":
			resp.Mode = "count"
			var res core.CountResult
			res, err = plan.CountParallelCtx(ctx, pol)
			resp.Count = res.Count
			resp.Stats.CachedEntries = res.CachedEntries

		case "eval":
			resp.Mode = "eval"
			limit := req.Limit
			if limit <= 0 {
				limit = e.cfg.MaxTuples
			}
			if limit <= 0 {
				limit = DefaultMaxTuples
			}
			// The run emits the sample and counts the rest.
			var res core.EvalResult
			res, err = plan.EvalLimitCtx(ctx, pol, limit, func(mu []int64) bool {
				resp.Tuples = append(resp.Tuples, append([]int64(nil), mu...))
				return true
			})
			resp.Count, resp.Truncated = res.Count, res.Count > int64(limit)
			resp.Stats.CachedEntries = res.CachedEntries

		case "aggregate":
			resp.Mode = "aggregate"
			switch req.Semiring {
			case "", "count":
				// Counting runs the count executor — what the fold over
				// (ℕ, +, ×) with unit weights computes, charge for charge —
				// and also reports the resident entries.
				var res core.CountResult
				res, err = plan.CountParallelCtx(ctx, pol)
				resp.Count = res.Count
				resp.Stats.CachedEntries = res.CachedEntries
			case "sum":
				sr := core.SumProductSemiring()
				resp.Value, err = core.AggregateParallelCtx(ctx, plan, pol, sr,
					func(_ int, v int64) float64 { return float64(v) })
			case "min":
				sr := core.TropicalSemiring()
				resp.Value, err = core.AggregateParallelCtx(ctx, plan, pol, sr,
					func(_ int, v int64) float64 { return float64(v) })
			default:
				return fmt.Errorf("server: unknown semiring %q (want count, sum or min)", req.Semiring)
			}

		case "stream":
			// Streaming is transport-level: a buffered Response cannot carry
			// it. The HTTP handler routes this mode before reaching here.
			return fmt.Errorf("server: mode \"stream\" has no buffered response — use Engine.StreamCtx or Stmt.Rows in process, or POST /query over HTTP")

		default:
			return fmt.Errorf("server: unknown mode %q (want count, eval or aggregate)", req.Mode)
		}
		if err != nil {
			return err
		}

		resp.Stats.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		resp.Stats.Counters = *x.c
		e.queries.Add(1)
		out = resp
		return nil
	})
	return out, err
}
