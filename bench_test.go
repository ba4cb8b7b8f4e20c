package cltj

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper and per ablation (E1–E11, E13, see DESIGN.md), each wrapping
// the corresponding driver in internal/bench at Quick scale so
// `go test -bench=.` finishes in minutes, plus per-engine
// micro-benchmarks on a fixed workload. Run `go run ./cmd/figures` for
// the full-scale tables.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/td"
	"repro/internal/yannakakis"
)

var quickCfg = bench.Config{Quick: true}

func benchExperiment(b *testing.B, run func(bench.Config) *bench.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := run(quickCfg)
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1IntroMemAccess(b *testing.B) { benchExperiment(b, bench.IntroMemoryAccesses) }
func BenchmarkE2Figure5(b *testing.B)        { benchExperiment(b, bench.Figure5) }
func BenchmarkE3Figure6(b *testing.B)        { benchExperiment(b, bench.Figure6) }
func BenchmarkE4Figure7(b *testing.B)        { benchExperiment(b, bench.Figure7) }
func BenchmarkE5Figure8(b *testing.B)        { benchExperiment(b, bench.Figure8) }
func BenchmarkE6Figure9(b *testing.B)        { benchExperiment(b, bench.Figure9) }
func BenchmarkE7Figure10(b *testing.B)       { benchExperiment(b, bench.Figure10) }
func BenchmarkE8Figure11(b *testing.B)       { benchExperiment(b, bench.Figure11) }
func BenchmarkE9Figure13(b *testing.B)       { benchExperiment(b, bench.Figure13) }
func BenchmarkE11Parallel(b *testing.B)      { benchExperiment(b, bench.ParallelSpeedup) }
func BenchmarkE13Updates(b *testing.B)       { benchExperiment(b, bench.IncrementalUpdates) }

// Per-engine micro-benchmarks: a fixed skewed graph and query so the
// three algorithms' costs are directly comparable in one `-bench` run.

func microDB() *DB {
	return dataset.TriadicPA(220, 4, 0.5, 33).DB(false)
}

// lftjPlan compiles LFTJ as the system runs it: the one-bag plan over
// the natural order, executed with caching disabled (lftjPolicy).
func lftjPlan(b *testing.B, q *Query, db *DB) *Plan {
	plan, err := core.NewPlan(q, db, td.Singleton(len(q.Vars())), q.Vars(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

var lftjPolicy = core.Policy{Disabled: true}

func BenchmarkEngineLFTJCount5Path(b *testing.B) {
	plan := lftjPlan(b, queries.Path(5), microDB())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan.Count(lftjPolicy).Count == 0 {
			b.Fatal("zero count")
		}
	}
}

func BenchmarkEngineCLFTJCount5Path(b *testing.B) {
	db := microDB()
	q := queries.Path(5)
	plan, err := core.AutoPlan(q, db, core.AutoOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan.Count(core.Policy{}).Count == 0 {
			b.Fatal("zero count")
		}
	}
}

func BenchmarkEngineCLFTJBounded5Path(b *testing.B) {
	db := microDB()
	q := queries.Path(5)
	plan, err := core.AutoPlan(q, db, core.AutoOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pol := core.Policy{Capacity: 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan.Count(pol).Count == 0 {
			b.Fatal("zero count")
		}
	}
}

func BenchmarkEngineYTDCount5Path(b *testing.B) {
	db := microDB()
	q := queries.Path(5)
	tree, _ := td.Select(q, td.Options{}, td.CostConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := yannakakis.New(q, db, tree, nil)
		if err != nil {
			b.Fatal(err)
		}
		if e.Count() == 0 {
			b.Fatal("zero count")
		}
	}
}

func BenchmarkEngineCLFTJCount5Cycle(b *testing.B) {
	db := dataset.CliqueUnion(200, 110, 12, 1.6, 9).DB(false)
	q := queries.Cycle(5)
	plan, err := core.AutoPlan(q, db, core.AutoOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Count(core.Policy{})
	}
}

func BenchmarkEngineLFTJCount5Cycle(b *testing.B) {
	plan := lftjPlan(b, queries.Cycle(5), dataset.CliqueUnion(200, 110, 12, 1.6, 9).DB(false))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Count(lftjPolicy)
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out:
// support thresholds and eviction modes on a bounded cache.

func BenchmarkAblationSupportThreshold(b *testing.B) {
	db := microDB()
	q := queries.Path(5)
	plan, err := core.AutoPlan(q, db, core.AutoOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, thr := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("support=%d", thr), func(b *testing.B) {
			pol := core.Policy{SupportThreshold: thr}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.Count(pol)
			}
		})
	}
}

func BenchmarkAblationEviction(b *testing.B) {
	db := microDB()
	q := queries.Path(5)
	plan, err := core.AutoPlan(q, db, core.AutoOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		m    core.EvictionMode
	}{{"fifo", core.EvictFIFO}, {"reject", core.EvictNone}, {"lru", core.EvictLRU}} {
		b.Run(mode.name, func(b *testing.B) {
			pol := core.Policy{Capacity: 64, Eviction: mode.m}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.Count(pol)
			}
		})
	}
}

// BenchmarkFacadeCount covers the one-call public API path end to end
// (plan selection included), the cost a first-time user pays.
func BenchmarkFacadeCount(b *testing.B) {
	db := microDB()
	q := queries.Cycle(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Count(q, db, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Ablation(b *testing.B) { benchExperiment(b, bench.Ablation) }
