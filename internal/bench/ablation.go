package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/queries"
	"repro/internal/td"
)

// Ablation (E10) goes beyond the paper's tables: it isolates the design
// choices DESIGN.md calls out — cache policy knobs (support threshold,
// eviction discipline) and the decomposition source (selected vs
// min-fill vs singleton) — on one skewed workload, so that each
// mechanism's individual contribution is visible.
func Ablation(cfg Config) *Table {
	g := cfg.graphs()[4] // ego-Twitter*: large and skewed
	db := g.DB(false)
	q := queries.Path(5)
	t := &Table{
		ID:     "E10 (ablation)",
		Title:  fmt.Sprintf("design-choice ablation, 5-path count on %s", g.Name),
		Header: []string{"axis", "variant", "count", "time ms", "hit rate", "entries", "evictions"},
	}

	addPolicy := func(axis, variant string, pol core.Policy) Measurement {
		m := RunCLFTJ(q, db, pol)
		t.Rows = append(t.Rows, []string{
			axis, variant, itoa64(m.Count), m.ms(),
			fmt.Sprintf("%.2f", m.Counters.HitRate()),
			itoa64(m.Counters.CacheInserts - m.Counters.CacheEvictions),
			itoa64(m.Counters.CacheEvictions),
		})
		return m
	}

	// Axis 1: support threshold (cache from the (k+1)-th occurrence).
	for _, thr := range []int{0, 1, 2, 4} {
		addPolicy("support", fmt.Sprintf("threshold=%d", thr), core.Policy{SupportThreshold: thr})
	}

	// Axis 2: eviction discipline under a tight shared capacity.
	capacity := 64
	if !cfg.Quick {
		capacity = 512
	}
	for _, mode := range []struct {
		name string
		m    core.EvictionMode
	}{{"fifo", core.EvictFIFO}, {"lru", core.EvictLRU}, {"reject-new", core.EvictNone}} {
		addPolicy("eviction", fmt.Sprintf("%s cap=%d", mode.name, capacity),
			core.Policy{Capacity: capacity, Eviction: mode.m})
	}

	// Axis 3: decomposition source under unbounded caches.
	numVars := len(q.Vars())
	selected, _ := td.Select(q, td.Options{}, td.CostConfig{})
	addTD := func(variant string, tree *td.TD) {
		order := orderNames(q, tree.CompatibleOrder(numVars))
		m := RunCLFTJWith(q, db, tree, order, core.Policy{})
		t.Rows = append(t.Rows, []string{
			"decomposition", variant, itoa64(m.Count), m.ms(),
			fmt.Sprintf("%.2f", m.Counters.HitRate()),
			itoa64(m.Counters.CacheInserts - m.Counters.CacheEvictions), "0",
		})
	}
	addTD(fmt.Sprintf("selected (%d bags)", selected.N()), selected)
	mf := td.MinFillDecompose(q)
	addTD(fmt.Sprintf("min-fill (%d bags)", mf.N()), mf)
	addTD("singleton (= LFTJ)", td.Singleton(numVars))

	t.Notes = append(t.Notes,
		"support>0 trades recomputation for memory: fewer entries, more misses",
		"under tight capacity LRU and FIFO behave similarly on this workload; reject-new freezes the early working set",
		"the singleton decomposition has no cache sites and reproduces LFTJ exactly")
	return t
}
