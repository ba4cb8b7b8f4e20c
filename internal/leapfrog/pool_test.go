package leapfrog

import (
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/stats"
)

// poolTestInstance compiles a fixed skewed workload with no counters
// (nil sinks make one instance safe for concurrent executions).
func poolTestInstance(t testing.TB, q *cq.Query) *Instance {
	t.Helper()
	db := dataset.TriadicPA(160, 3, 0.5, 77).DB(false)
	inst, err := Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestPooledRunnersConcurrent hammers one instance's runner pool from
// many goroutines mixing sequential counts, sharded runs and
// evaluations — the -race run of the pooled frogs the CI race job
// executes. Every execution must see a fresh-equivalent runner: same
// count, no cross-talk through recycled cursors or permuted frog legs.
func TestPooledRunnersConcurrent(t *testing.T) {
	q := queries.Cycle(4)
	inst := poolTestInstance(t, q)
	want := Count(inst)
	if want == 0 {
		t.Fatal("workload counts zero matches; test would prove nothing")
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0:
					if got := Count(inst); got != want {
						t.Errorf("pooled Count = %d, want %d", got, want)
						return
					}
				case 1:
					// The shard primitives core's driver runs on: a root
					// prescan and three workers, each drawing a pooled
					// runner with a private sink.
					if len(RootKeys(inst, nil)) == 0 {
						t.Error("pooled RootKeys found no root values")
						return
					}
					var c stats.Counters
					got := make([]int64, 3)
					RunSharded(3, &c, func(w int, wc *stats.Counters) {
						r := NewRunnerCounters(inst, wc)
						got[w] = r.Count()
						r.Release()
					})
					for w, n := range got {
						if n != want {
							t.Errorf("pooled sharded worker %d counted %d, want %d", w, n, want)
							return
						}
					}
				default:
					var n int64
					Eval(inst, func(mu []int64) bool { n++; return true })
					if n != want {
						t.Errorf("pooled Eval enumerated %d, want %d", n, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPooledRunnerAccountingRebind checks that a pooled runner rebinds
// its accounting sink on reuse: two same-instance executions with
// different counters must charge identical totals to each, with
// nothing leaking from one sink to the other through the recycled
// iterators.
func TestPooledRunnerAccountingRebind(t *testing.T) {
	q := queries.Path(3)
	db := dataset.TriadicPA(120, 3, 0.4, 9).DB(false)
	inst, err := Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b stats.Counters
	ra := NewRunnerCounters(inst, &a)
	na := ra.Count()
	ra.Release()
	rb := NewRunnerCounters(inst, &b)
	nb := rb.Count()
	rb.Release()
	if na != nb {
		t.Fatalf("counts differ across pooled reuse: %d vs %d", na, nb)
	}
	if a.TrieAccesses == 0 || a != b {
		t.Fatalf("pooled accounting drifted: first %+v, second %+v", a, b)
	}
}
