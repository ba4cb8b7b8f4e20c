package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/queries"
)

// RunCLFTJPlan measures one sharded count over an already-compiled plan
// (compileErr threads AutoPlan's error through, so sweep drivers can
// compile once and measure many runs). Accounting covers only the run.
func RunCLFTJPlan(plan *core.Plan, compileErr error, policy core.Policy) Measurement {
	if compileErr != nil {
		return Measurement{Err: compileErr}
	}
	var m Measurement
	start := time.Now()
	res, _ := plan.WithCounters(&m.Counters).CountParallelCtx(context.Background(), policy)
	m.Count = res.Count
	m.Duration = time.Since(start)
	return m
}

// ParallelSpeedup (E11) goes beyond the paper's single-core protocol: it
// sweeps the worker count of the sharded CLFTJ engine over the triangle,
// clique, path and cycle shapes and reports the speedup against the
// 1-worker (sequential) run. The root trie level is embarrassingly
// parallel, so on a W-core machine the clique workloads (no cacheable
// bags — pure compute) should approach W×, while cache-heavy shapes gain
// less once per-worker caches repeat work a shared cache would reuse.
func ParallelSpeedup(cfg Config) *Table {
	workerSweep := []int{1, 2, 4, 8}
	t := &Table{
		ID:     "E11 (parallel)",
		Title:  fmt.Sprintf("parallel CLFTJ count: speedup vs workers (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		Header: []string{"workload", "workers", "count", "time ms", "speedup vs 1 worker"},
	}
	var g *dataset.Graph
	if cfg.Quick {
		g = dataset.TriadicPA(150, 3, 0.4, 2101)
	} else {
		g = dataset.TriadicPA(400, 4, 0.4, 2101)
	}
	db := g.DB(false)
	workloads := []struct {
		name string
		q    *cq.Query
	}{
		{"triangle", queries.Clique(3)},
		{"4-clique", queries.Clique(4)},
		{"5-path", queries.Path(5)},
		{"5-cycle", queries.Cycle(5)},
	}
	for _, w := range workloads {
		// One compile per workload: the sweep isolates execution scaling,
		// and RunCLFTJPlan never times plan selection — recompiling an
		// identical plan per worker count only wastes driver wall-clock.
		plan, perr := core.AutoPlan(w.q, db, core.AutoOptions{Orderer: core.OrdererCost})
		base := RunCLFTJPlan(plan, perr, core.Policy{Workers: 1})
		for _, k := range workerSweep {
			m := base
			if k != 1 {
				m = RunCLFTJPlan(plan, perr, core.Policy{Workers: k})
			}
			t.Rows = append(t.Rows, []string{
				w.name, fmt.Sprintf("%d", k), itoa64(m.Count), m.ms(), m.Speedup(base),
			})
			if m.Err == nil && base.Err == nil && m.Count != base.Count {
				t.Notes = append(t.Notes, fmt.Sprintf("MISMATCH: %s at %d workers counted %d, sequential %d",
					w.name, k, m.Count, base.Count))
			}
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: near-linear scaling on the clique workloads up to the core count; speedups flatten at GOMAXPROCS",
		"per-worker caches trade reuse for zero synchronization — see DESIGN.md, \"Parallel execution\"")
	return t
}
