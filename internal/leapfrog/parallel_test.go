package leapfrog

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/stats"
)

// shardedCount counts the join the way core's driver shards LFTJ: the
// root domain comes from ShardDomain, each worker owns a Runner over
// its round-robin share of the root keys, and RunSharded merges the
// per-worker accounting into the instance's counters.
func shardedCount(inst *Instance, workers int) int64 {
	if inst.Empty() {
		return 0
	}
	keys, workers := ShardDomain(inst, workers, inst.Counters())
	if workers <= 1 {
		return Count(inst)
	}
	totals := make([]int64, workers)
	RunSharded(workers, inst.Counters(), func(w int, wc *stats.Counters) {
		r := NewRunnerCounters(inst, wc)
		frog, ok := r.OpenDepth(0)
		var total int64
		for i := w; ok && i < len(keys); i += workers {
			if !frog.SeekGE(keys[i]) {
				break
			}
			r.mu[0] = keys[i]
			total += r.countFrom(1)
		}
		r.CloseDepth(0)
		r.Release()
		totals[w] = total
	})
	var total int64
	for _, n := range totals {
		total += n
	}
	return total
}

func TestParallelCountMatchesSequential(t *testing.T) {
	db := dataset.TriadicPA(80, 3, 0.5, 5).DB(false)
	shapes := []struct {
		name string
		q    *cq.Query
	}{
		{"4-path", queries.Path(4)},
		{"4-cycle", queries.Cycle(4)},
		{"triangle", queries.Clique(3)},
		{"4-clique", queries.Clique(4)},
		{"lollipop-3-1", queries.Lollipop(3, 1)},
	}
	for _, sh := range shapes {
		inst, err := Build(sh.q, db, sh.q.Vars(), nil)
		if err != nil {
			t.Fatalf("%s: Build: %v", sh.name, err)
		}
		want := Count(inst)
		for _, workers := range []int{0, 1, 2, 3, 8} {
			if got := shardedCount(inst, workers); got != want {
				t.Errorf("%s workers=%d: sharded count = %d, Count = %d", sh.name, workers, got, want)
			}
		}
	}
}

// TestParallelCountAccounting checks that the merged per-worker counters
// record real, deterministic work and that a 1-worker run accounts
// exactly like the sequential path.
func TestParallelCountAccounting(t *testing.T) {
	var c stats.Counters
	q := queries.Clique(3)
	db := dataset.TriadicPA(60, 3, 0.5, 9).DB(false)
	inst, err := Build(q, db, q.Vars(), &c)
	if err != nil {
		t.Fatal(err)
	}

	c.Reset()
	Count(inst)
	seq := c

	c.Reset()
	shardedCount(inst, 1)
	if c != seq {
		t.Errorf("sharded count (1 worker) accounting %+v differs from sequential %+v", c, seq)
	}

	c.Reset()
	shardedCount(inst, 3)
	first := c
	if first.TrieAccesses == 0 {
		t.Fatalf("parallel run accounted no trie accesses")
	}
	c.Reset()
	shardedCount(inst, 3)
	if c != first {
		t.Errorf("parallel accounting not deterministic: %+v vs %+v", c, first)
	}
}

// TestRootKeys pins the shard domain: the root keys of a join are the
// sorted intersection of the participating atoms' first trie levels.
func TestRootKeys(t *testing.T) {
	q := queries.Path(3) // E(x1,x2), E(x2,x3): depth 0 constrained by the first atom only
	db := dataset.ErdosRenyi(20, 0.2, 3).DB(false)
	inst, err := Build(q, db, q.Vars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := RootKeys(inst, nil)
	if len(keys) == 0 {
		t.Fatal("no root keys on a non-empty graph")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("root keys not strictly ascending at %d: %v", i, keys)
		}
	}
	// Every root key must start at least one result tuple, and every
	// result's first variable must be a root key — for this query the
	// root level is exactly the set of x1 values with an outgoing edge.
	seen := map[int64]bool{}
	Eval(inst, func(mu []int64) bool {
		seen[mu[0]] = true
		return true
	})
	for v := range seen {
		found := false
		for _, k := range keys {
			if k == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("result root value %d missing from RootKeys", v)
		}
	}
}
