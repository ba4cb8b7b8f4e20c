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

// streamHash folds one emitted row into an FNV-style running hash; the
// hash is order-sensitive, so two streams hash equal only when they
// carry the same rows in the same order — the cheap stand-in for the
// byte-level NDJSON comparison the golden test performs.
func streamHash(h uint64, mu []int64) uint64 {
	for _, v := range mu {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// runStream measures one streaming evaluation at the given worker
// count, returning the measurement plus the order-sensitive stream
// hash.
func runStream(plan *core.Plan, policy core.Policy, workers int) (Measurement, uint64) {
	var m Measurement
	h := uint64(1469598103934665603)
	start := time.Now()
	res, _ := plan.EvalStreamCtx(context.Background(), policy, workers, func(mu []int64) bool {
		h = streamHash(h, mu)
		return true
	})
	m.Duration = time.Since(start)
	m.Count = res.Emitted
	return m, h
}

// StreamThroughput (E18) sweeps the worker count of the sharded
// streaming producer (core.EvalStreamCtx — the engine under Stmt.Rows
// and the HTTP NDJSON endpoint) and reports throughput against the
// sequential stream. Unlike E11's CountParallelCtx, the merged stream must
// be byte-deterministic: every row crosses a channel and is re-emitted
// in shard order, so the sweep also verifies the stream hash is
// identical at every worker count (IDENTICAL column). Streams run with
// caching disabled — the producer's own tradeoff for its canonical
// order.
func StreamThroughput(cfg Config) *Table {
	workerSweep := []int{1, 2, 4, 8}
	t := &Table{
		ID:     "E18 (streaming)",
		Title:  fmt.Sprintf("parallel streaming: rows/s vs workers (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		Header: []string{"workload", "workers", "rows", "time ms", "Mrows/s", "speedup vs 1 worker", "identical"},
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
		{"4-path", queries.Path(4)},
		{"5-cycle", queries.Cycle(5)},
	}
	policy := core.Policy{Disabled: true}
	for _, w := range workloads {
		plan, perr := core.AutoPlan(w.q, db, core.AutoOptions{})
		if perr != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("SKIP %s: %v", w.name, perr))
			continue
		}
		base, baseHash := runStream(plan, policy, 1)
		for _, k := range workerSweep {
			m, h := base, baseHash
			if k != 1 {
				m, h = runStream(plan, policy, k)
			}
			ident := "yes"
			if h != baseHash || m.Count != base.Count {
				ident = "NO"
				t.Notes = append(t.Notes, fmt.Sprintf("MISMATCH: %s at %d workers streamed %d rows (hash %x), sequential %d (hash %x)",
					w.name, k, m.Count, h, base.Count, baseHash))
			}
			mrows := "-"
			if m.Duration > 0 {
				mrows = fmt.Sprintf("%.2f", float64(m.Count)/m.Duration.Seconds()/1e6)
			}
			t.Rows = append(t.Rows, []string{
				w.name, fmt.Sprintf("%d", k), itoa64(m.Count), m.ms(), mrows, m.Speedup(base), ident,
			})
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: >= 2x throughput at 4 workers on the compute-heavy shapes, with byte-identical output at every worker count",
		"the producer trades per-query caches for its deterministic merge order — see DESIGN.md, \"The leaf scan and parallel streaming\"")
	return t
}
