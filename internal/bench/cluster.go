package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/server"
)

// ClusterScatterGather (E20) measures the distributed serving tier over
// the in-process harness: a coordinator fanning root-shardable queries
// out over N partitioned engines versus one engine holding the union.
// Each row sweeps the shard count for one workload and reports merged
// throughput, the scatter–gather overhead against the single engine,
// and whether the merged answers stayed identical — counts must match
// exactly and the merged stream must carry the same rows in the same
// order (the stream-hash stand-in for the golden byte-level test in
// internal/cluster). In-process shards share the host's cores, so this
// isolates coordination cost (fan-out, snapshot handshake, k-way merge)
// rather than demonstrating scale-out speedup; see DESIGN.md,
// "Distributed serving".
func ClusterScatterGather(cfg Config) *Table {
	shardSweep := []int{1, 2, 4}
	repeats := 20
	var g *dataset.Graph
	if cfg.Quick {
		g = dataset.TriadicPA(150, 3, 0.4, 2301)
		repeats = 5
	} else {
		g = dataset.TriadicPA(400, 4, 0.4, 2301)
	}
	db := g.DB(false)

	workloads := []struct {
		name string
		req  server.Request
	}{
		{"2-star count", server.Request{Query: "E(x,y), E(x,z)", Mode: "count"}},
		{"3-star count", server.Request{Query: "E(x,y), E(x,z), E(x,w)", Mode: "count"}},
		{"2-star stream", server.Request{Query: "E(x,y), E(x,z)", Mode: "stream"}},
	}

	t := &Table{
		ID:     "E20 (cluster)",
		Title:  "distributed scatter–gather: coordinator over N in-process shards vs one engine",
		Header: []string{"workload", "shards", "queries/sec", "vs single", "identical"},
	}
	ctx := context.Background()

	// run drives one backend `repeats` times and returns throughput plus
	// the (count, order-sensitive stream hash) identity pair.
	run := func(do func() (int64, uint64, error)) (float64, int64, uint64, error) {
		var count int64
		var hash uint64
		start := time.Now()
		for i := 0; i < repeats; i++ {
			c, h, err := do()
			if err != nil {
				return 0, 0, 0, err
			}
			count, hash = c, h
		}
		return float64(repeats) / time.Since(start).Seconds(), count, hash, nil
	}

	for _, w := range workloads {
		single := server.NewEngine(db, server.Config{Orderer: "greedy"})
		baseQPS, baseCount, baseHash, err := run(func() (int64, uint64, error) {
			return execClusterReq(w.req, func(req server.Request, row func([]int64) bool) (int64, error) {
				if row == nil {
					resp, err := single.Do(req)
					if err != nil {
						return 0, err
					}
					return resp.Count, nil
				}
				sum, err := single.StreamCtx(ctx, req, nil, row)
				return sum.Count, err
			})
		})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("ERROR %s (single): %v", w.name, err))
			continue
		}

		for _, n := range shardSweep {
			dbs, routing, err := cluster.Partition(db, n)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("ERROR %s partition n=%d: %v", w.name, n, err))
				continue
			}
			shards := make([]cluster.Shard, n)
			for i, pdb := range dbs {
				shards[i] = cluster.NewEngineShard(fmt.Sprintf("shard-%d", i), server.NewEngine(pdb, server.Config{}))
			}
			coord, err := cluster.New(routing, shards, cluster.Config{})
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("ERROR %s n=%d: %v", w.name, n, err))
				continue
			}
			qps, count, hash, err := run(func() (int64, uint64, error) {
				return execClusterReq(w.req, func(req server.Request, row func([]int64) bool) (int64, error) {
					if row == nil {
						resp, err := coord.Do(ctx, req)
						if err != nil {
							return 0, err
						}
						return resp.Count, nil
					}
					sum, err := coord.StreamCtx(ctx, req, nil, row)
					return sum.Count, err
				})
			})
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("ERROR %s n=%d: %v", w.name, n, err))
				continue
			}
			ident := "yes"
			if count != baseCount || hash != baseHash {
				ident = "NO"
				t.Notes = append(t.Notes, fmt.Sprintf("MISMATCH: %s at %d shards merged %d rows (hash %x), single %d (hash %x)",
					w.name, n, count, hash, baseCount, baseHash))
			}
			ratio := "-"
			if baseQPS > 0 {
				ratio = fmt.Sprintf("%.2fx", qps/baseQPS)
			}
			t.Rows = append(t.Rows, []string{
				w.name, fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", qps), ratio, ident,
			})
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: identical answers at every shard count; throughput within a small constant factor of the single engine (the shards share this host's cores, so the ratio prices coordination, not scale-out)",
		"the coordinator pins orderer=greedy and sends its expected version vector with every shard call — both costs are included",
	)
	return t
}

// execClusterReq runs one request against a backend — buffered count or
// hash-folded stream — returning (count, stream hash). Buffered modes
// hash their count so the identity check still bites.
func execClusterReq(req server.Request, do func(server.Request, func([]int64) bool) (int64, error)) (int64, uint64, error) {
	if req.Mode != "stream" {
		c, err := do(req, nil)
		return c, streamHash(1469598103934665603, []int64{c}), err
	}
	h := uint64(1469598103934665603)
	sreq := req
	sreq.Mode = ""
	c, err := do(sreq, func(mu []int64) bool {
		h = streamHash(h, mu)
		return true
	})
	return c, h, err
}
