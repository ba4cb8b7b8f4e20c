package server

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trie"
)

// Request is one query submission. The zero values of the optional
// fields defer to the engine's defaults.
type Request struct {
	// Query is the conjunctive query text, e.g. "E(x,y), E(y,z), E(x,z)".
	Query string `json:"query"`
	// Mode selects the execution: "count" (default), "eval" or
	// "aggregate".
	Mode string `json:"mode,omitempty"`
	// Workers overrides the engine's default parallelism for this query
	// (0: engine default; 1: sequential; K: K goroutines).
	Workers int `json:"workers,omitempty"`
	// CacheCapacity bounds this query's CLFTJ caches (entries per
	// worker; 0 = unbounded), CacheSupport is the support threshold and
	// CacheEviction one of "fifo" (default), "none", "lru". NoCache
	// disables caching entirely (CLFTJ degenerates to LFTJ).
	CacheCapacity int    `json:"cache_capacity,omitempty"`
	CacheSupport  int    `json:"cache_support,omitempty"`
	CacheEviction string `json:"cache_eviction,omitempty"`
	NoCache       bool   `json:"no_cache,omitempty"`
	// Limit caps the tuples returned by eval (0: engine default). The
	// reported count is always the full |q(D)|. Streaming executions
	// ("mode": "stream") instead stop the scan at the limit; there 0
	// means unlimited for raw-text queries, while for a prepared
	// statement 0 keeps the prepared default and a negative value
	// clears it (stream everything).
	Limit int `json:"limit,omitempty"`
	// Semiring selects the aggregate: "count" (default; |q(D)| with
	// subtree-aggregate caches), "sum" (sum over tuples of the product
	// of the bound values) or "min" (tropical: min over tuples of the
	// sum of the bound values).
	Semiring string `json:"semiring,omitempty"`
	// TimeoutMS bounds the query's wall-clock time in milliseconds
	// (0: only the caller's context limits it). Past the deadline the
	// join unwinds cooperatively and the request fails with
	// context.DeadlineExceeded.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Stmt executes a prepared statement by id (see Engine.Prepare and
	// POST /prepare) instead of parsing Query, which must then be
	// empty. Non-zero execution fields override the statement's
	// defaults.
	Stmt string `json:"stmt,omitempty"`
	// AllowPartial lets a cluster coordinator answer from the surviving
	// shards when some are unreachable, marking the response
	// Partial/Missing instead of failing with a shard error. A
	// single-engine server has no shards to lose and ignores it.
	// Execution-only: never part of the plan-cache key.
	AllowPartial bool `json:"allow_partial,omitempty"`
	// IfVersions is a precondition on the snapshot the execution pins:
	// the version number the sender expects of each named relation. An
	// execution whose pinned snapshot stands anywhere else is refused
	// with a *VersionMismatch (HTTP 409) carrying the versions it found —
	// for a stream, before the header line. Entries naming relations the
	// query does not touch are ignored. A cluster coordinator sends it
	// with every shard call, so every merged answer executed at the
	// vectors it expected. Execution-only: never part of the plan-cache
	// key.
	IfVersions map[string]uint64 `json:"if_versions,omitempty"`
}

// VersionMismatch refuses a request whose IfVersions precondition does
// not hold at the snapshot its execution pinned. Have is what that
// snapshot stands at: the version number of each relation the query
// touches. Nothing was executed or delivered.
type VersionMismatch struct {
	Have map[string]uint64
}

func (e *VersionMismatch) Error() string {
	return fmt.Sprintf("server: snapshot stands at versions %v, not the if_versions the request expects", e.Have)
}

// QueryStats is the per-query accounting attached to a Response.
type QueryStats struct {
	// DurationMS is the wall-clock time of parse+plan+run.
	DurationMS float64 `json:"duration_ms"`
	// Counters is this query's private accounting (trie/hash/tuple
	// accesses, cache statistics, trie builds). A warm engine answers a
	// repeated query with Counters.TrieBuilds == 0.
	Counters stats.Counters `json:"counters"`
	// CachedEntries is the number of intermediate results resident in
	// the query's CLFTJ caches when it finished.
	CachedEntries int `json:"cached_entries"`
	// PlanCached reports that the query executed a plan served from the
	// engine's plan cache — parse still happened (for raw-text
	// requests), but TD selection and plan compilation were skipped
	// entirely. PlanRebound adds that the cached shape was first bound
	// to this request's snapshot: its tries were re-acquired (patched,
	// usually) because an update or a registry eviction had released the
	// cached binding, or the request was pinned to another snapshot.
	PlanCached  bool `json:"plan_cached,omitempty"`
	PlanRebound bool `json:"plan_rebound,omitempty"`
}

// Response is the result of one Request.
type Response struct {
	// Mode echoes the executed mode.
	Mode string `json:"mode"`
	// Count is |q(D)| for count and eval, and the aggregate value for
	// the counting semiring.
	Count int64 `json:"count"`
	// Value is the aggregate value for the float-valued semirings
	// ("sum", "min").
	Value float64 `json:"value,omitempty"`
	// Order is the plan's variable order; eval tuples align with it.
	Order []string `json:"order"`
	// Tuples is the first Limit result tuples (eval only).
	Tuples [][]int64 `json:"tuples,omitempty"`
	// Truncated reports that eval found more tuples than Limit.
	Truncated bool `json:"truncated,omitempty"`
	// Versions is the version sub-vector the query executed at: the
	// version number of each relation it touches, in the consistent
	// snapshot the execution pinned — equal to the request's IfVersions
	// wherever that named the relation. A distributed coordinator folds
	// it into the vector it expects of the shard next time.
	Versions map[string]uint64 `json:"versions,omitempty"`
	// Partial marks a coordinator answer assembled from a strict subset
	// of the routed shards (AllowPartial requests only); Missing names
	// the shards whose contribution is absent, sorted. Count/Tuples are
	// exact over the surviving shards' data — never an estimate.
	Partial bool     `json:"partial,omitempty"`
	Missing []string `json:"missing_shards,omitempty"`
	// Stats is the query's private accounting.
	Stats QueryStats `json:"stats"`
}

// StreamSummary is StreamCtx's trailer: how many rows were delivered
// and whether the request's (or prepared default's) limit cut the
// enumeration short. Partial and Missing are set only by a cluster
// coordinator serving an allow_partial stream over a degraded fleet
// (the delivered rows are the exact merge of the surviving shards);
// a single engine always leaves them zero. It is the NDJSON stream's
// {"summary": ...} trailer verbatim: the field order is the wire's key
// order, and only a degraded merge carries the two extra keys — a
// healthy fleet's trailer stays byte-identical to a single engine's.
type StreamSummary struct {
	Count     int64    `json:"count"`
	Missing   []string `json:"missing_shards,omitempty"`
	Partial   bool     `json:"partial,omitempty"`
	Truncated bool     `json:"truncated"`
}

// UpdateRequest is one mutation submission: a batch of inserts and
// deletes applied atomically to a single relation (deletes first, then
// inserts; set semantics, so redundant tuples are ignored).
type UpdateRequest struct {
	// Relation names the relation to mutate.
	Relation string `json:"relation"`
	// Inserts and Deletes are the delta tuples; each must match the
	// relation's arity.
	Inserts [][]int64 `json:"inserts,omitempty"`
	Deletes [][]int64 `json:"deletes,omitempty"`
}

// UpdateResult describes the version installed by one Update.
type UpdateResult struct {
	// Relation echoes the mutated relation.
	Relation string `json:"relation"`
	// Version is the relation's version number after the update.
	Version uint64 `json:"version"`
	// Tuples is the relation's cardinality after the update.
	Tuples int `json:"tuples"`
	// Applied is false when the delta had no net effect (the version,
	// and every cached index, is unchanged).
	Applied bool `json:"applied"`
	// Compacted reports that the cumulative delta crossed the
	// patch-vs-rebuild crossover: this version became its own base and
	// its indices will be rebuilt once instead of patched.
	Compacted bool `json:"compacted"`
	// PendingDelta is the cumulative |adds| + |dels| the version carries
	// relative to its base: 0 right after compaction, and when the
	// update undid the pending ones and installed the base itself
	// (Compacted false: the base did not move).
	PendingDelta int `json:"pending_delta"`
}

// EngineStats is the merged engine-lifetime view served by GET /stats:
// lifetime totals plus the current residency — registry byte usage and
// evictions, live version counts, and the per-relation version
// inventory — so operators (and the CI stress gates) can assert on the
// engine's steady state, not just its history.
type EngineStats struct {
	// Queries is the number of completed requests; Updates the number
	// of applied (non-no-op) deltas.
	Queries int64 `json:"queries"`
	Updates int64 `json:"updates"`
	// UptimeSeconds measures from engine construction.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Lifetime is the exact fold of every finished query's counters
	// plus one DeltaApplies per applied update.
	Lifetime stats.Counters `json:"lifetime"`
	// Registry describes the shared trie registry — current resident
	// bytes and entries next to lifetime hits/builds/patches/evictions.
	Registry trie.RegistryStats `json:"registry"`
	// Plans describes the compiled-plan cache: hit/miss/eviction
	// lifetime counts next to the current residency (zero when plan
	// caching is disabled).
	Plans PlanCacheStats `json:"plans"`
	// Prepared is the number of prepared statements currently
	// registered (Engine.Prepare / POST /prepare).
	Prepared int `json:"prepared"`
	// Persistence reports the data directory's activity — snapshot and
	// WAL bytes written, records replayed, and mmap opens — when the
	// engine was built by OpenEngine with Config.DataDir; nil (omitted)
	// for memory-only engines. A warm-booted engine shows RelationOpens
	// and TrieOpens with zero registry Builds for its first queries.
	Persistence *store.Stats `json:"persistence,omitempty"`
	// LiveVersions counts the relation versions currently reachable:
	// one per relation, plus each patched relation's base version
	// (kept resident as the patch substrate), plus every superseded
	// version still pinned by in-flight queries (epoch reclamation
	// drops those as queries drain).
	LiveVersions int `json:"live_versions"`
	// Relations inventories the loaded dataset at its current versions.
	Relations []RelationInfo `json:"relations"`
}

// RelationInfo describes one loaded relation at its current version.
type RelationInfo struct {
	Name   string `json:"name"`
	Arity  int    `json:"arity"`
	Tuples int    `json:"tuples"`
	// Version is the number of applied deltas since load.
	Version uint64 `json:"version"`
	// PendingDelta is the cumulative delta the current version carries
	// relative to its last compacted base — the size of the
	// copy-on-write overlay its patched indices pay for.
	PendingDelta int `json:"pending_delta,omitempty"`
}
