// Package bench is the experiment harness: one driver per table/figure of
// the paper's evaluation (§5), each producing a text table with the same
// rows and series the paper reports — runtimes, memory accesses, cache
// statistics — over the synthetic SNAP/IMDB stand-ins of package dataset.
// cmd/figures regenerates everything; bench_test.go at the repository
// root wraps each driver in a testing.B benchmark.
package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/genericjoin"
	"repro/internal/pairwise"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
	"repro/internal/yannakakis"
)

// Config scales the experiments.
type Config struct {
	// Scale multiplies dataset sizes (1 = default benchmark size).
	Scale dataset.Scale
	// Quick shrinks datasets and sweeps so the full suite runs in
	// seconds; used by tests and -quick runs.
	Quick bool
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// errMemoryBound marks runs skipped because the algorithm would
// materialize intermediates beyond available memory (the analogue of the
// paper's timeout/failure markings).
var errMemoryBound = errors.New("bench: skipped, materialized intermediates exceed memory")

// Measurement is one algorithm execution.
type Measurement struct {
	Count    int64
	Duration time.Duration
	Counters stats.Counters
	Err      error
}

func (m Measurement) ms() string {
	if m.Err != nil {
		return "err"
	}
	return fmt.Sprintf("%.2f", float64(m.Duration.Microseconds())/1000)
}

// Speedup reports base's duration relative to m's (how much faster m is).
func (m Measurement) Speedup(base Measurement) string {
	if m.Err != nil || base.Err != nil || m.Duration <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(base.Duration)/float64(m.Duration))
}

// lftjPolicy is the cache policy under which CLFTJ is LFTJ (§3.2):
// nothing is cached, so over the one-bag TD (td.Singleton) the run is
// Fig. 1's TJCount on the executor and leaf loop every CLFTJ row uses.
var lftjPolicy = core.Policy{Disabled: true}

// RunLFTJ measures vanilla LFTJ count under the given order (nil: the
// query's natural order) — the one-bag plan with caching disabled. Index
// (trie) construction is excluded from the timing, matching the paper's
// preloaded-index protocol.
func RunLFTJ(q *cq.Query, db *relation.DB, order []string) Measurement {
	if order == nil {
		order = q.Vars()
	}
	return RunCLFTJWith(q, db, td.Singleton(len(order)), order, lftjPolicy)
}

// RunLFTJEval measures vanilla LFTJ full evaluation (results consumed,
// not stored, per §5.3.2's "computing the materialized result rather
// than storing it") — the one-bag plan with caching disabled.
func RunLFTJEval(q *cq.Query, db *relation.DB) Measurement {
	var m Measurement
	plan, err := core.NewPlan(q, db, td.Singleton(len(q.Vars())), q.Vars(), &m.Counters)
	if err != nil {
		return Measurement{Err: err}
	}
	m.timeEval(plan, lftjPolicy)
	return m
}

// RunCLFTJ measures CLFTJ count with a TD selected by the paper's §4
// planner, core.CostSelect (tree selection and trie construction
// excluded from timing).
func RunCLFTJ(q *cq.Query, db *relation.DB, policy core.Policy) Measurement {
	var m Measurement
	plan, err := costPlan(q, db, &m.Counters)
	if err != nil {
		return Measurement{Err: err}
	}
	m.Counters.Reset() // drop plan-selection accounting; measure the run
	start := time.Now()
	m.Count = plan.Count(policy).Count
	m.Duration = time.Since(start)
	return m
}

// costPlan compiles q under the TD and order the paper's §4 planner,
// core.CostSelect, picks; the plan accounts into counters (may be nil).
func costPlan(q *cq.Query, db *relation.DB, counters *stats.Counters) (*core.Plan, error) {
	tree, order, err := core.CostSelect(q, db)
	if err != nil {
		return nil, err
	}
	return core.NewPlan(q, db, tree, order, counters)
}

// RunCLFTJWith measures CLFTJ count under an explicit TD and order.
func RunCLFTJWith(q *cq.Query, db *relation.DB, tree *td.TD, order []string, policy core.Policy) Measurement {
	var m Measurement
	plan, err := core.NewPlan(q, db, tree, order, &m.Counters)
	if err != nil {
		return Measurement{Err: err}
	}
	start := time.Now()
	m.Count = plan.Count(policy).Count
	m.Duration = time.Since(start)
	return m
}

// RunCLFTJEval measures CLFTJ full evaluation (TD selected by
// core.CostSelect, as in RunCLFTJ).
func RunCLFTJEval(q *cq.Query, db *relation.DB, policy core.Policy) Measurement {
	var m Measurement
	plan, err := costPlan(q, db, &m.Counters)
	if err != nil {
		return Measurement{Err: err}
	}
	m.Counters.Reset() // drop plan-selection accounting; measure the run
	m.timeEval(plan, policy)
	return m
}

// timeEval times one sequential evaluation of plan under policy, the
// results consumed and counted. plan accounts into m.Counters.
func (m *Measurement) timeEval(plan *core.Plan, policy core.Policy) {
	start := time.Now()
	var n, sink int64
	plan.Eval(policy, func(mu []int64) bool {
		n++
		sink ^= mu[0]
		return true
	})
	_ = sink
	m.Duration = time.Since(start)
	m.Count = n
}

// RunYTD measures Yannakakis-over-TD count. Bag materialization and
// reduction are part of the measured time — they are the algorithm's
// join work, not index loading.
func RunYTD(q *cq.Query, db *relation.DB) Measurement {
	var m Measurement
	tree, _ := td.Select(q, td.Options{}, td.CostConfig{})
	start := time.Now()
	e, err := yannakakis.New(q, db, tree, &m.Counters)
	if err != nil {
		return Measurement{Err: err}
	}
	m.Count = e.Count()
	m.Duration = time.Since(start)
	return m
}

// RunYTDEval measures Yannakakis-over-TD full evaluation.
func RunYTDEval(q *cq.Query, db *relation.DB) Measurement {
	var m Measurement
	tree, _ := td.Select(q, td.Options{}, td.CostConfig{})
	start := time.Now()
	e, err := yannakakis.New(q, db, tree, &m.Counters)
	if err != nil {
		return Measurement{Err: err}
	}
	var n, sink int64
	e.Eval(func(tup []int64) bool {
		n++
		sink ^= tup[0]
		return true
	})
	_ = sink
	m.Count = n
	m.Duration = time.Since(start)
	return m
}

// RunPairwise measures the traditional pairwise hash-join baseline.
func RunPairwise(q *cq.Query, db *relation.DB) Measurement {
	var m Measurement
	start := time.Now()
	res, err := pairwise.Count(q, db, &m.Counters)
	if err != nil {
		return Measurement{Err: err}
	}
	m.Count = res.Count
	m.Duration = time.Since(start)
	return m
}

// RunGenericJoin measures the hash-based NPRR/GenericJoin worst-case
// optimal algorithm (the SYS1 stand-in: the paper's "DBMS using a worst
// case-optimal join algorithm as its join engine", §5.2.3). Index
// construction happens lazily inside the run, mirroring a system that
// builds hash structures per query.
func RunGenericJoin(q *cq.Query, db *relation.DB) Measurement {
	var m Measurement
	inst, err := genericjoin.Build(q, db, nil, &m.Counters)
	if err != nil {
		return Measurement{Err: err}
	}
	start := time.Now()
	m.Count = inst.Count()
	m.Duration = time.Since(start)
	return m
}

// graphs returns the SNAP stand-ins at the configured size.
func (c Config) graphs() []*dataset.Graph {
	if c.Quick {
		return []*dataset.Graph{
			named("wiki-Vote*", dataset.PreferentialAttachment(180, 3, 1001)),
			named("p2p-Gnutella04*", dataset.ErdosRenyi(240, 4.0/240, 1002)),
			quickCaGrQc(),
			named("ego-Facebook*", dataset.Community(130, 6, 0.2, 0.005, 1004)),
			named("ego-Twitter*", dataset.PreferentialAttachment(260, 4, 1005)),
		}
	}
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	return dataset.SNAPAll(s)
}

func named(name string, g *dataset.Graph) *dataset.Graph {
	g.Name = name
	return g
}

// quickCaGrQc is the single source of the Quick-scale ca-GrQc*
// generator, shared by the full suite and the E1 shortcut below so the
// two cannot drift.
func quickCaGrQc() *dataset.Graph {
	return named("ca-GrQc*", dataset.Community(160, 12, 0.16, 0.002, 1003))
}

// caGrQc returns the ca-GrQc* stand-in alone. E1 uses only this graph;
// generating the whole suite to index one entry dominated the driver's
// wall-clock at Quick scale (the hot-path overhaul's motivation applies
// to the harness too).
func (c Config) caGrQc() *dataset.Graph {
	if c.Quick {
		return quickCaGrQc()
	}
	return c.graphs()[2]
}

// pathGraphs returns the smaller wiki-Vote/ego-Facebook variants used by
// the {3–7}-path and {3–6}-cycle sweeps (Figs. 6–8): vanilla LFTJ's cost
// on long paths grows by an order of magnitude per hop, so the sweep
// sizes are chosen to keep the slowest baseline in the seconds range
// (the paper used 10-hour timeouts on server hardware instead).
func (c Config) pathGraphs() []*dataset.Graph {
	if c.Quick {
		return []*dataset.Graph{
			named("wiki-Vote*", dataset.TriadicPA(140, 3, 0.35, 1001)),
			named("ego-Facebook*", dataset.TriadicPA(110, 4, 0.7, 1004)),
			named("ca-GrQc*", dataset.CliqueUnion(150, 80, 10, 1.6, 1003)),
		}
	}
	return []*dataset.Graph{
		named("wiki-Vote* (small)", dataset.TriadicPA(280, 4, 0.35, 1001)),
		named("ego-Facebook* (small)", dataset.TriadicPA(200, 6, 0.7, 1004)),
		named("ca-GrQc* (small)", dataset.CliqueUnion(300, 160, 12, 1.6, 1003)),
	}
}

// imdb returns the IMDB stand-in at the harness size: small enough that
// the slowest baseline rows (vanilla LFTJ on the 6-cycle under a poor
// order, Fig. 13) stay in the tens of seconds.
func (c Config) imdb() *relation.DB {
	cfg := dataset.DefaultIMDB()
	cfg.Persons, cfg.Movies, cfg.Appearances = 800, 280, 3200
	if c.Quick {
		cfg.Persons, cfg.Movies, cfg.Appearances = 300, 90, 1200
	}
	return dataset.IMDBCast(cfg)
}

func itoa64(v int64) string { return fmt.Sprintf("%d", v) }
