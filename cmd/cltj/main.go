// Command cltj runs queries against an edge-list graph with a chosen
// join algorithm, reporting counts (or tuples), runtime and
// memory-access statistics.
//
// Usage:
//
//	cltj -query 5-cycle -data graph.txt [-algo clftj|lftj|ytd|pairwise]
//	     [-eval] [-cache N] [-support N] [-workers K] [-timeout DUR]
//	     [-symmetric] [-show-td] [-cpuprofile out.pprof]
//	cltj -updates deltas.txt ...                      # replay deltas first
//	cltj -queries workload.txt [-trie-budget BYTES]   # batch over one engine
//	cltj -queries workload.txt -data-dir DIR          # persistent batch engine
//
// The query flag accepts k-path, k-cycle, k-clique, {c,t}-lollipop (as
// "lollipop-c-t") and "rand-N-P-SEED". Without -data, a built-in skewed
// sample graph is used.
//
// Batch mode (-queries) runs a workload file — one query per line,
// either explicit text ("E(x,y), E(y,z), E(x,z)") or a named shape
// ("5-cycle"); blank lines and #-comments are skipped — against one
// resident engine, so trie indices built for early queries are reused
// by later ones. The HTTP/JSON service over the same engine is cltjd.
//
// Update replay (-updates) applies a delta file to the loaded dataset
// before any query runs, through a memory-only engine's Update — the
// path of the daemon's live POST /update. One op per line:
//
//	"+ E 7 9"     insert tuple (7,9) into relation E
//	"- E 1 2"     delete tuple (1,2) from relation E
//	"apply"       flush pending ops as one delta per relation
//
// Blank lines and #-comments are skipped; a final implicit "apply"
// flushes the tail. Each flushed delta advances the relation's version
// exactly like a live update would.
//
// Batch mode accepts -data-dir DIR to run persistently (format:
// docs/FORMAT.md), exactly like cltjd: a cold start snapshots
// the loaded dataset into the directory, updates become durable, and
// the next start with the same directory boots warm — snapshots
// verified and mmap'd, write-ahead logs replayed, dataset flags
// ignored — with trie indices opened from disk instead of rebuilt.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/pairwise"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/td"
	"repro/internal/yannakakis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the CLI contract is
// testable (and golden-tested) in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cltj", flag.ContinueOnError)
	fs.SetOutput(stderr)
	queryFlag := fs.String("query", "4-cycle", "query: k-path, k-cycle, k-clique, lollipop-c-t, rand-N-P-SEED")
	qFlag := fs.String("q", "", "explicit query text, e.g. 'E(x,y), E(y,z), E(x,z)' (overrides -query)")
	var rels dataset.RelSpecs
	fs.Var(&rels, "rel", "load a relation from a whitespace-delimited file: -rel R=path (repeatable)")
	dataFlag := fs.String("data", "", "edge-list file for relation E (default: built-in skewed sample graph)")
	algoFlag := fs.String("algo", "clftj", "algorithm: clftj, lftj, ytd, pairwise")
	evalFlag := fs.Bool("eval", false, "enumerate tuples instead of counting (prints the first few)")
	cacheFlag := fs.Int("cache", 0, "CLFTJ cache capacity (0 = unbounded)")
	supportFlag := fs.Int("support", 0, "CLFTJ support threshold")
	workersFlag := fs.Int("workers", 1, "worker goroutines for clftj and lftj counts (0 = one per core, 1 = sequential); -eval runs on one worker, other algorithms ignore it")
	timeoutFlag := fs.Duration("timeout", 0, "wall-clock budget covering planning, index build and the join (clftj and lftj; 0 = unlimited): past it the run unwinds cooperatively and cltj exits nonzero")
	symFlag := fs.Bool("symmetric", false, "treat edges as undirected (add both directions)")
	showTD := fs.Bool("show-td", false, "print the selected tree decomposition")
	queriesFlag := fs.String("queries", "", "batch mode: run the workload file (one query per line) against one resident engine")
	updatesFlag := fs.String("updates", "", "replay a delta file ('+ R v...' / '- R v...' / 'apply' lines) against the dataset before running")
	budgetFlag := fs.Int64("trie-budget", 0, "resident trie byte budget for -queries (0 = unbounded)")
	dataDirFlag := fs.String("data-dir", "", "persistent data directory for -queries: snapshots + write-ahead logs + trie index files; a populated directory boots warm (dataset flags are ignored) and updates become durable")
	cpuProfileFlag := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file (analyze with `go tool pprof`)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cltj:", err)
		return 1
	}
	if *cpuProfileFlag != "" {
		pf, err := os.Create(*cpuProfileFlag)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}

	// -data-dir only makes sense where an engine owns the data: batch
	// mode. -updates replays through a memory-only engine, bypassing the
	// WAL, so combining them would silently drop durability — reject it.
	if *dataDirFlag != "" {
		if *queriesFlag == "" {
			return fail(fmt.Errorf("-data-dir requires the resident engine of -queries (or run cltjd)"))
		}
		if *updatesFlag != "" {
			return fail(fmt.Errorf("-data-dir persists updates through the engine; apply them live (POST /update) instead of -updates"))
		}
	}

	// A persistent batch defers loading to server.OpenEngine, which
	// skips it entirely on a warm boot; everything else loads up front.
	var db *relation.DB
	var err error
	if *dataDirFlag == "" {
		var g *dataset.Graph
		db, g, err = dataset.LoadDB(rels, *dataFlag, *symFlag)
		if err != nil {
			return fail(err)
		}
		if g != nil {
			fmt.Fprintf(stdout, "graph %s: %d nodes, %d edges\n", g.Name, g.N, g.NumEdges())
		} else {
			for _, name := range db.Names() {
				r, err := db.Get(name)
				if err != nil {
					return fail(err)
				}
				fmt.Fprintf(stdout, "relation %s: %d tuples (arity %d)\n", name, r.Len(), r.Arity())
			}
		}

		if *updatesFlag != "" {
			engine := server.NewEngine(db, server.Config{})
			if err := replayUpdates(engine, *updatesFlag, stdout); err != nil {
				return fail(err)
			}
			db = engine.DB()
		}
	}

	// The single-query paths default -workers to 1 (the paper's
	// sequential protocol); batch mode defaults to one worker per core,
	// matching cltjd, unless -workers was set.
	engineWorkers := 0
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			engineWorkers = *workersFlag
		}
	})
	// -timeout bounds one query run; the resident engine takes
	// per-request budgets instead (timeout_ms on each request), so a
	// global flag there would be silently meaningless — reject it.
	if *timeoutFlag > 0 && *queriesFlag != "" {
		return fail(fmt.Errorf("-timeout applies to single-query runs; the resident engine takes timeout_ms per request (cltjd)"))
	}
	if *queriesFlag != "" {
		cfg := server.Config{Workers: engineWorkers, TrieBudget: *budgetFlag, DataDir: *dataDirFlag}
		engine, err := openEngine(db, cfg, rels, *dataFlag, *symFlag, stdout)
		if err != nil {
			return fail(err)
		}
		defer engine.Close()
		return runBatch(engine, *queriesFlag, stdout, stderr)
	}

	var q *cq.Query
	if *qFlag != "" {
		q, err = cq.Parse(*qFlag)
	} else {
		q, err = queries.Parse(*queryFlag)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "query: %s\n", q)

	// -timeout starts its clock here, so the budget covers plan
	// selection and index construction as well as the join (a build
	// that overruns it trips the join's upfront deadline check). The
	// cooperative cancellation checks live in the trie-join engines,
	// so only clftj and lftj honor it.
	ctx := context.Background()
	if *timeoutFlag > 0 {
		if *algoFlag != "clftj" && *algoFlag != "lftj" {
			return fail(fmt.Errorf("-timeout requires -algo clftj or lftj (got %q)", *algoFlag))
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}

	var c stats.Counters
	policy := core.Policy{Capacity: *cacheFlag, SupportThreshold: *supportFlag, Workers: *workersFlag}
	start := time.Now()
	var count int64
	switch *algoFlag {
	case "clftj":
		plan, err := core.AutoPlan(q, db, core.AutoOptions{Counters: &c})
		if err != nil {
			return fail(err)
		}
		if *showTD {
			fmt.Fprintf(stdout, "selected TD (order %v):\n%s", plan.Order(), plan.TD())
		}
		start = time.Now()
		count, err = runPlan(ctx, stdout, plan, policy, *evalFlag)
		if err != nil {
			return fail(err)
		}
	case "lftj":
		// LFTJ is CLFTJ with nothing cached (§3.2): the one-bag plan over
		// the query's natural order, run with caching disabled.
		plan, err := core.NewPlan(q, db, td.Singleton(len(q.Vars())), q.Vars(), &c)
		if err != nil {
			return fail(err)
		}
		policy.Disabled = true
		start = time.Now()
		count, err = runPlan(ctx, stdout, plan, policy, *evalFlag)
		if err != nil {
			return fail(err)
		}
	case "ytd":
		tree, _ := td.Select(q, td.Options{}, td.CostConfig{})
		if *showTD {
			fmt.Fprintf(stdout, "selected TD:\n%s", tree)
		}
		e, err := yannakakis.New(q, db, tree, &c)
		if err != nil {
			return fail(err)
		}
		if *evalFlag {
			count, _ = evalSome(stdout, q.Vars(), func(emit func([]int64) bool) error {
				e.Eval(emit)
				return nil
			})
		} else {
			count = e.Count()
		}
	case "pairwise":
		if *evalFlag {
			var err error
			count, err = evalSome(stdout, q.Vars(), func(emit func([]int64) bool) error {
				return pairwise.Eval(q, db, &c, emit)
			})
			if err != nil {
				return fail(err)
			}
		} else {
			res, err := pairwise.Count(q, db, &c)
			if err != nil {
				return fail(err)
			}
			count = res.Count
		}
	default:
		return fail(fmt.Errorf("unknown algorithm %q", *algoFlag))
	}
	dur := time.Since(start)

	verb := "count"
	if *evalFlag {
		verb = "results"
	}
	fmt.Fprintf(stdout, "%s: %d\ntime: %s\naccesses: %s\n", verb, count, dur.Round(time.Microsecond), c.String())
	if c.CacheHits+c.CacheMisses > 0 {
		fmt.Fprintf(stdout, "cache hit rate: %.2f\n", c.HitRate())
	}
	return 0
}

// replayUpdates applies a delta file (see the package comment for the
// line format) through e.Update, the path of a live POST /update: the
// same validation, version numbers and compaction. Pending ops flush as
// one delta per relation, in first-touched order, on each "apply" line
// and at end of file.
func replayUpdates(e *server.Engine, path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var order []string
	pending := make(map[string]*server.UpdateRequest)
	applied := 0

	flush := func() error {
		for _, name := range order {
			req := pending[name]
			if len(req.Inserts) == 0 && len(req.Deletes) == 0 {
				continue
			}
			res, err := e.Update(*req)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			if res.Applied {
				applied++
				fmt.Fprintf(stdout, "update %s: +%d -%d -> version %d (%d tuples)\n",
					name, len(req.Inserts), len(req.Deletes), res.Version, res.Tuples)
			} else {
				fmt.Fprintf(stdout, "update %s: +%d -%d -> no-op (version %d)\n",
					name, len(req.Inserts), len(req.Deletes), res.Version)
			}
			pending[name] = &server.UpdateRequest{Relation: name}
		}
		return nil
	}

	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "apply" {
			if err := flush(); err != nil {
				return err
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || (fields[0] != "+" && fields[0] != "-") {
			return fmt.Errorf("%s:%d: want '+ R v...', '- R v...' or 'apply', got %q", path, lineNo, line)
		}
		name := fields[1]
		tup := make([]int64, len(fields)-2)
		for i, fv := range fields[2:] {
			v, err := strconv.ParseInt(fv, 10, 64)
			if err != nil {
				return fmt.Errorf("%s:%d: bad value %q", path, lineNo, fv)
			}
			tup[i] = v
		}
		req := pending[name]
		if req == nil {
			req = &server.UpdateRequest{Relation: name}
			pending[name] = req
			order = append(order, name)
		}
		if fields[0] == "+" {
			req.Inserts = append(req.Inserts, tup)
		} else {
			req.Deletes = append(req.Deletes, tup)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "updates: %d deltas applied\n", applied)
	return nil
}

// openEngine builds the resident engine of batch mode. With an empty
// Config.DataDir it wraps the already-loaded db in a memory-only engine;
// with a data directory it routes through server.OpenEngine, loading the
// dataset only on a cold start and echoing the warm/cold outcome plus
// the served relation inventory.
func openEngine(db *relation.DB, cfg server.Config, rels dataset.RelSpecs, dataPath string, symmetric bool, stdout io.Writer) (*server.Engine, error) {
	if cfg.DataDir == "" {
		return server.NewEngine(db, cfg), nil
	}
	engine, warm, err := server.OpenEngine(cfg, func() (*relation.DB, error) {
		db, _, err := dataset.LoadDB(rels, dataPath, symmetric)
		return db, err
	})
	if err != nil {
		return nil, err
	}
	if warm {
		fmt.Fprintf(stdout, "warm start: %s snapshots mmap'd, wal replayed, dataset flags skipped\n", cfg.DataDir)
	} else {
		fmt.Fprintf(stdout, "cold start: dataset persisted to %s (next start will be warm)\n", cfg.DataDir)
	}
	for _, info := range engine.Stats().Relations {
		fmt.Fprintf(stdout, "relation %s: %d tuples (arity %d, version %d)\n", info.Name, info.Tuples, info.Arity, info.Version)
	}
	return engine, nil
}

// runBatch executes a workload file against one resident engine: the
// trie registry warms on the first queries and later ones reuse it, the
// amortization a per-invocation CLI can never get.
func runBatch(engine *server.Engine, path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "cltj:", err)
		return 1
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	n, failed := 0, 0
	start := time.Now()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		text := line
		if !strings.Contains(line, "(") {
			q, err := queries.Parse(line)
			if err != nil {
				fmt.Fprintf(stdout, "[%d] %s: error: %v\n", n, line, err)
				failed++
				n++
				continue
			}
			text = q.String()
		}
		resp, err := engine.Do(server.Request{Query: text})
		if err != nil {
			fmt.Fprintf(stdout, "[%d] %s: error: %v\n", n, line, err)
			failed++
			n++
			continue
		}
		fmt.Fprintf(stdout, "[%d] %s: count=%d builds=%d accesses=%d\n",
			n, line, resp.Count, resp.Stats.Counters.TrieBuilds, resp.Stats.Counters.Total())
		n++
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "cltj:", err)
		return 1
	}
	s := engine.Stats()
	fmt.Fprintf(stdout, "batch: %d queries in %s\n", n, time.Since(start).Round(time.Microsecond))
	fmt.Fprintf(stdout, "engine: lifetime %s\n", s.Lifetime.String())
	fmt.Fprintf(stdout, "registry: %s\n", s.Registry.String())
	if failed > 0 {
		return 1
	}
	return 0
}

// runPlan counts the plan's result, or with eval enumerates it through
// evalSome (on one worker whatever policy.Workers says), under policy
// and ctx.
func runPlan(ctx context.Context, stdout io.Writer, plan *core.Plan, policy core.Policy, eval bool) (int64, error) {
	if !eval {
		res, err := plan.CountParallelCtx(ctx, policy)
		return res.Count, err
	}
	return evalSome(stdout, plan.Order(), func(emit func([]int64) bool) error {
		_, err := plan.EvalParallelCtx(ctx, policy, emit)
		return err
	})
}

// evalSome drives an evaluation, printing the first 5 tuples and
// returning the total (and runEval's error, e.g. a timeout).
func evalSome(stdout io.Writer, order []string, runEval func(emit func([]int64) bool) error) (int64, error) {
	var n int64
	err := runEval(func(mu []int64) bool {
		if n < 5 {
			parts := make([]string, len(mu))
			for i, v := range mu {
				parts[i] = fmt.Sprintf("%s=%d", order[i], v)
			}
			fmt.Fprintln(stdout, "  "+strings.Join(parts, " "))
		}
		n++
		return true
	})
	if n > 5 {
		fmt.Fprintf(stdout, "  ... (%d more)\n", n-5)
	}
	return n, err
}
