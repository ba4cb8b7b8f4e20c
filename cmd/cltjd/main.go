// Command cltjd is the resident CLTJ query daemon: it loads a dataset
// once, indexes it lazily into a shared trie registry, and serves
// HTTP/JSON queries until stopped — the long-lived deployment shape the
// per-invocation cltj CLI cannot offer. Repeated and overlapping
// queries reuse resident indices, so steady-state latency excludes trie
// construction entirely. Relations stay mutable while the daemon runs:
// POST /update applies live insert/delete deltas, each installing a new
// relation version whose indices are derived from the resident ones by
// copy-on-write patches (full rebuilds only past the compaction
// crossover), while concurrent queries keep answering from the
// snapshot they started on.
//
// With -data-dir the daemon is persistent (format: docs/FORMAT.md): the
// first start snapshots the loaded dataset into the directory, updates
// append to per-relation write-ahead logs before they are acknowledged,
// and trie indices built for queries are written behind. A restart with
// the same -data-dir boots warm — snapshots are verified and mmap'd,
// WALs replayed, dataset flags ignored — and answers its first query in
// milliseconds with zero trie builds (observable via GET /stats).
//
// The daemon also scales out (DESIGN.md, "Distributed serving").
// With -shard i/n it serves one hash partition: the dataset is loaded
// and only the tuples whose first attribute hashes to partition i are
// kept. With -coordinator -shards host1,host2,... it serves no data
// itself but fans queries out over the listed shard daemons (in
// partition order) and merges the answers with single-engine semantics.
// In every mode the listener binds immediately and answers 503 on all
// paths — including GET /healthz — until the engine has booted (or, for
// a coordinator, until every shard is ready), so probes can tell
// "booting" from "down".
//
// Usage:
//
//	cltjd [-addr :8372] [-data graph.txt | -rel R=path ...] [-symmetric]
//	      [-data-dir DIR] [-workers K]
//	      [-trie-budget BYTES] [-max-tuples N]
//	      [-compact-fraction F] [-plan-cache N] [-max-prepared N] [-drain DUR]
//	      [-shard i/n]
//	cltjd -coordinator -shards host1:8372,host2:8372 [-addr :8372]
//	      [-admit DUR] [-shard-timeout DUR] [-hedge DUR] [-drain DUR]
//
// A partition may be served by several replicas holding the same data
// slice, grouped with "|": -shards a1:8372|a2:8372,b:8372 makes
// partition 0 a two-replica group. Reads fail over between replicas
// (optionally hedged after -hedge), updates fan out to all of them, and
// a per-endpoint circuit breaker fails fast on proven-dead endpoints.
// Requests carrying "allow_partial": true may be answered from the
// surviving partitions when others are down — flagged "partial": true
// with the missing shards named, never silently wrong (see
// docs/OPERATIONS.md for the degraded-mode runbook).
//
// Endpoints (see internal/server for the wire format):
//
//	POST   /query        {"query": "E(x,y), E(y,z), E(x,z)", "mode": "count"}
//	                     ({"stmt": "s1"} executes a prepared statement;
//	                     "mode": "stream" streams NDJSON rows; "timeout_ms"
//	                     bounds one query)
//	POST   /prepare      {"query": "..."} -> {"stmt": "s1"}
//	DELETE /prepare/{id} close a prepared statement
//	POST   /update       {"relation": "E", "inserts": [[7,9]], "deletes": [[1,2]]}
//	GET    /stats        engine-lifetime counters + registry + plan cache + versions
//	GET    /healthz      readiness probe (503 while booting, 200 serving)
//
// A coordinator serves the same /query, /update, /stats and /healthz
// surface (no /prepare — prepared statements are engine-local), merged
// across its fleet: counts summed, streams merged byte-identically in
// root-key order, counters folded exactly. Shard failures answer 502
// naming the failed shard; a fleet whose data keeps moving behind the
// coordinator, or stands behind what it has seen applied, answers 409.
//
// Queries run under their request contexts: a disconnected client
// cancels its query, and SIGINT/SIGTERM shuts the daemon down
// gracefully — in-flight queries drain (bounded by -drain), epoch
// reclamation proceeds as usual, then the process exits.
//
// Example (two shards and a coordinator on one host):
//
//	cltjd -data graph.txt -shard 0/2 -addr :8401 &
//	cltjd -data graph.txt -shard 1/2 -addr :8402 &
//	cltjd -coordinator -shards localhost:8401,localhost:8402 -addr :8400 &
//	curl -s localhost:8400/query -d '{"query": "E(x,y), E(x,z)"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	var rels dataset.RelSpecs
	flag.Var(&rels, "rel", "load a relation from a whitespace-delimited file: -rel R=path (repeatable)")
	dataFlag := flag.String("data", "", "edge-list file for relation E (default: built-in skewed sample graph)")
	symFlag := flag.Bool("symmetric", false, "treat edges as undirected (add both directions)")
	workersFlag := flag.Int("workers", 0, "default per-query worker goroutines of counts and aggregates (0 = one per core); eval and stream run on one worker, and results are identical at every count")
	budgetFlag := flag.Int64("trie-budget", 0, "resident trie byte budget shared across queries (0 = unbounded)")
	maxTuples := flag.Int("max-tuples", server.DefaultMaxTuples, "default cap on tuples returned by eval responses")
	compactFlag := flag.Float64("compact-fraction", 0, "patch-vs-rebuild crossover as a fraction of the base relation size (0 = default)")
	planCacheFlag := flag.Int("plan-cache", 0, "compiled-plan cache capacity in entries (0 = default, negative = disabled)")
	maxPreparedFlag := flag.Int("max-prepared", 0, "prepared-statement registry cap (0 = default)")
	dataDirFlag := flag.String("data-dir", "", "persistent data directory: snapshots + write-ahead logs + trie index files; a populated directory boots warm (dataset flags are ignored) and updates become durable")
	drainFlag := flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight queries on SIGINT/SIGTERM")
	shardFlag := flag.String("shard", "", "serve one hash partition of the dataset: -shard i/n keeps only the tuples whose first attribute hashes to partition i of n (cluster shard mode)")
	coordFlag := flag.Bool("coordinator", false, "serve as a scatter–gather coordinator over -shards instead of loading data")
	shardsFlag := flag.String("shards", "", "coordinator mode: comma-separated shard groups in partition order; a group is one address or |-separated replica addresses holding the same partition (a1|a2,b)")
	admitFlag := flag.Duration("admit", 2*time.Minute, "coordinator mode: how long to wait for every shard to answer its readiness probe before serving")
	shardTimeoutFlag := flag.Duration("shard-timeout", cluster.DefaultShardTimeout, "coordinator mode: per-shard request timeout for buffered operations")
	hedgeFlag := flag.Duration("hedge", 0, "coordinator mode: launch a buffered read on the next replica after this delay without an answer (0 = no hedging; only replica groups hedge)")
	flag.Parse()
	if *workersFlag < 0 {
		fmt.Fprintf(os.Stderr, "invalid value %d for flag -workers: negative\n", *workersFlag)
		flag.Usage()
		os.Exit(2)
	}
	if *coordFlag && *shardFlag != "" {
		log.Fatalln("cltjd: -coordinator and -shard are mutually exclusive (a coordinator serves no data)")
	}

	// The listener binds before any engine boot or shard admission: a
	// warm restart replaying a long WAL — or a coordinator waiting for
	// its fleet — answers 503 ("starting") on every path, including
	// GET /healthz, instead of refusing connections. gate.Set flips the
	// daemon to serving atomically.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gate := server.NewGate()
	srv := server.NewHTTPServer(*addr, gate)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	var engine *server.Engine
	if *coordFlag {
		groups, err := parseShardGroups(*shardsFlag)
		if err != nil {
			log.Fatalln("cltjd:", err)
		}
		coord, err := cluster.NewHTTPFleet(groups,
			cluster.ClientConfig{Timeout: *shardTimeoutFlag},
			cluster.ReplicaConfig{Hedge: *hedgeFlag},
			cluster.Config{})
		if err != nil {
			log.Fatalln("cltjd:", err)
		}
		log.Printf("cltjd coordinator on %s: waiting up to %s for %d shards to become ready", *addr, *admitFlag, len(groups))
		admitCtx, cancel := context.WithTimeout(ctx, *admitFlag)
		err = coord.WaitReady(admitCtx)
		cancel()
		if err != nil {
			log.Fatalln("cltjd:", err)
		}
		gate.Set(cluster.NewHandler(coord))
		log.Printf("cltjd coordinator serving %d shards on %s (POST /query, POST /update, GET /stats, GET /healthz)", len(groups), *addr)
	} else {
		shardIdx, shardTotal, err := parseShard(*shardFlag)
		if err != nil {
			log.Fatalln("cltjd:", err)
		}
		var warm bool
		engine, warm, err = server.OpenEngine(server.Config{
			Workers:         *workersFlag,
			TrieBudget:      *budgetFlag,
			MaxTuples:       *maxTuples,
			CompactFraction: *compactFlag,
			PlanCache:       *planCacheFlag,
			MaxPrepared:     *maxPreparedFlag,
			DataDir:         *dataDirFlag,
		}, func() (*relation.DB, error) {
			db, _, err := dataset.LoadDB(rels, *dataFlag, *symFlag)
			if err != nil || shardTotal == 0 {
				return db, err
			}
			// Shard mode: every shard loads the same dataset files and
			// keeps its own hash slice. A later warm boot skips this
			// loader entirely and serves the slice it persisted.
			return cluster.Keep(db, shardIdx, shardTotal)
		})
		if err != nil {
			log.Fatalln("cltjd:", err)
		}
		if *dataDirFlag != "" {
			if warm {
				log.Printf("warm start: %s snapshots mmap'd, wal replayed, dataset files skipped", *dataDirFlag)
			} else {
				log.Printf("cold start: dataset persisted to %s (next start will be warm)", *dataDirFlag)
			}
		}
		if shardTotal != 0 {
			log.Printf("shard %d/%d: serving the first-attribute hash partition", shardIdx, shardTotal)
		}
		for _, info := range engine.Stats().Relations {
			log.Printf("relation %s: %d tuples (arity %d, version %d)", info.Name, info.Tuples, info.Arity, info.Version)
		}
		gate.Set(server.NewHandler(engine))
		log.Printf("cltjd listening on %s (POST /query, POST /prepare, POST /update, GET /stats, GET /healthz)", *addr)
	}

	// Serve until SIGINT/SIGTERM, then shut down gracefully: Shutdown
	// stops accepting connections and waits for in-flight requests, so
	// running queries drain normally — their epoch pins release as they
	// finish, exactly as in steady state (queries that outlive the drain
	// budget are cancelled through their request contexts when the
	// server closes their connections).
	select {
	case err := <-errc:
		log.Fatalln("cltjd:", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("cltjd: shutting down (draining in-flight queries for up to %s)", *drainFlag)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("cltjd: drain incomplete: %v", err)
		_ = srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalln("cltjd:", err)
	}
	if engine == nil {
		log.Printf("cltjd: bye")
		return
	}
	// Queries have drained (or been cancelled) by now, so the mmap'd
	// snapshots and WAL handles can be released safely.
	if err := engine.Close(); err != nil {
		log.Printf("cltjd: closing data dir: %v", err)
	}
	log.Printf("cltjd: bye (%d queries served)", engine.Stats().Queries)
}

// parseShardGroups parses -shards into replica groups: partitions split
// on "," and replicas within a partition on "|" (a1|a2,b means
// partition 0 is served by replicas a1 and a2, partition 1 by b alone).
func parseShardGroups(s string) ([][]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-coordinator requires -shards host1,host2,... (partition order; a|b groups replicas)")
	}
	var groups [][]string
	for _, part := range strings.Split(s, ",") {
		var group []string
		for _, a := range strings.Split(part, "|") {
			if a = strings.TrimSpace(a); a != "" {
				group = append(group, a)
			}
		}
		if len(group) == 0 {
			return nil, fmt.Errorf("bad -shards %q: empty partition group", s)
		}
		groups = append(groups, group)
	}
	return groups, nil
}

// parseShard parses -shard i/n; an empty flag means unsharded (0, 0).
func parseShard(s string) (idx, total int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &idx, &total); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/2)", s)
	}
	if total < 1 || idx < 0 || idx >= total {
		return 0, 0, fmt.Errorf("bad -shard %q: index must be in [0,%d)", s, total)
	}
	return idx, total, nil
}
