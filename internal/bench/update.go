package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
)

// IncrementalUpdates (E13) measures the incremental-update subsystem
// along its two axes. Part one is the patch-vs-rebuild crossover: for a
// sweep of delta sizes, the time from applying a delta to answering the
// next query on a warm engine, with copy-on-write patched indices
// versus a fresh engine that rebuilds from scratch — and a consistency
// check that both report the same count. Part two is the live-traffic
// ablation: queries/sec under a background updater applying deltas at
// increasing rates, showing what continuous mutation costs the query
// stream when indices are patched rather than rebuilt.
func IncrementalUpdates(cfg Config) *Table {
	var g *dataset.Graph
	deltas := []int{1, 8, 64, 512}
	repeats := 4
	if cfg.Quick {
		g = dataset.TriadicPA(140, 3, 0.4, 3301)
		deltas = []int{1, 8, 64}
		repeats = 2
	} else {
		g = dataset.TriadicPA(400, 4, 0.4, 3301)
	}
	const query = "E(x,y), E(y,z), E(x,z)"

	t := &Table{
		ID:     "E13 (updates)",
		Title:  "incremental updates: patch-vs-rebuild crossover and update-rate vs query-throughput",
		Header: []string{"mode", "delta", "update+query ms", "count", "builds", "patches"},
	}

	// Part 1: crossover. The patched engine never compacts (so every
	// delta below the sweep maximum stays a patch); the rebuild arm is
	// a fresh engine per version, the cost a restart-to-update
	// deployment pays.
	for _, k := range deltas {
		db := g.DB(false)
		patched := server.NewEngine(db, server.Config{Workers: 1, CompactFraction: 1e9})
		if _, err := patched.Do(server.Request{Query: query}); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("ERROR warm (delta=%d): %v", k, err))
			continue
		}
		next := int64(10_000)
		mkDelta := func() ([][]int64, [][]int64) {
			ins := make([][]int64, 0, k)
			for i := 0; i < k; i++ {
				ins = append(ins, []int64{next, next + 1})
				next++
			}
			rel, _ := patched.DB().Get("E")
			del := [][]int64{append([]int64(nil), rel.Tuple(int(next)%rel.Len())...)}
			return ins, del
		}

		var patchedMS, rebuildMS float64
		var patchedCount, rebuildCount int64
		var builds, patches int64
		ok := true
		for r := 0; r < repeats && ok; r++ {
			ins, del := mkDelta()

			start := time.Now()
			if _, err := patched.Update(server.UpdateRequest{Relation: "E", Inserts: ins, Deletes: del}); err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("ERROR update (delta=%d): %v", k, err))
				ok = false
				break
			}
			resp, err := patched.Do(server.Request{Query: query})
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("ERROR query (delta=%d): %v", k, err))
				ok = false
				break
			}
			patchedMS += float64(time.Since(start).Microseconds()) / 1000
			patchedCount = resp.Count
			builds += resp.Stats.Counters.TrieBuilds
			patches += resp.Stats.Counters.TriePatches

			// Rebuild arm: cold engine over the same snapshot.
			start = time.Now()
			fresh := server.NewEngine(patched.DB(), server.Config{Workers: 1})
			fresp, err := fresh.Do(server.Request{Query: query})
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("ERROR rebuild (delta=%d): %v", k, err))
				ok = false
				break
			}
			rebuildMS += float64(time.Since(start).Microseconds()) / 1000
			rebuildCount = fresp.Count
		}
		if !ok {
			continue
		}
		if patchedCount != rebuildCount {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"ERROR: patched count %d != rebuild count %d at delta=%d", patchedCount, rebuildCount, k))
		}
		t.Rows = append(t.Rows, []string{
			"patch", fmt.Sprintf("%d", k), fmt.Sprintf("%.2f", patchedMS/float64(repeats)),
			itoa64(patchedCount), itoa64(builds), itoa64(patches),
		})
		t.Rows = append(t.Rows, []string{
			"rebuild", fmt.Sprintf("%d", k), fmt.Sprintf("%.2f", rebuildMS/float64(repeats)),
			itoa64(rebuildCount), "-", "-",
		})
	}

	// Part 2: update-rate vs query throughput. A background updater
	// applies small deltas back-to-back with a pause between them; the
	// sweep tightens the pause while clients hammer the triangle count.
	intervals := []time.Duration{0, 2 * time.Millisecond, 500 * time.Microsecond}
	clients := 4
	window := 400 * time.Millisecond
	if cfg.Quick {
		intervals = []time.Duration{0, 2 * time.Millisecond}
		clients = 2
		window = 120 * time.Millisecond
	}
	for _, interval := range intervals {
		db := g.DB(false)
		e := server.NewEngine(db, server.Config{Workers: 1})
		if _, err := e.Do(server.Request{Query: query}); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("ERROR warm (interval=%s): %v", interval, err))
			continue
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		if interval > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				next := int64(50_000)
				for !stop.Load() {
					_, err := e.Update(server.UpdateRequest{
						Relation: "E",
						Inserts:  [][]int64{{next, next + 1}},
						Deletes:  [][]int64{{next - 40_000, next - 39_999}},
					})
					if err != nil {
						return
					}
					next++
					time.Sleep(interval)
				}
			}()
		}
		var queriesDone atomic.Int64
		var errOnce sync.Once
		var firstErr error
		deadline := time.Now().Add(window)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if _, err := e.Do(server.Request{Query: query}); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					queriesDone.Add(1)
				}
			}()
		}
		time.Sleep(window)
		stop.Store(true)
		wg.Wait()
		if firstErr != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("ERROR under load (interval=%s): %v", interval, firstErr))
			continue
		}
		s := e.Stats()
		label := "none"
		if interval > 0 {
			label = interval.String()
		}
		t.Rows = append(t.Rows, []string{
			"live/" + label, itoa64(s.Updates),
			fmt.Sprintf("%.0f qps", float64(queriesDone.Load())/window.Seconds()),
			itoa64(int64(s.Queries)), itoa64(s.Registry.Builds - s.Registry.Patches), itoa64(s.Registry.Patches),
		})
	}
	t.Notes = append(t.Notes,
		"patch: warm engine, delta applied in place, next query served by copy-on-write patched indices",
		"rebuild: fresh engine over the same snapshot — every index rebuilt, the restart-to-update cost",
		"live/<interval>: background updater applying 1-tuple deltas at that pause while clients query",
	)
	return t
}
