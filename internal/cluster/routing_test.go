package cluster

import (
	"errors"
	"testing"

	"repro/internal/cq"
	"repro/internal/server"
)

// TestShardOfContract pins the hash: ShardOf is a wire contract shared
// by the partitioner, the update router and every coordinator, so its
// values must never drift across releases.
func TestShardOfContract(t *testing.T) {
	pinned := []struct {
		v int64
		n int
		s int
	}{
		{0, 4, 0},
		{1, 4, 1},
		{2, 4, 2},
		{3, 4, 0},
		{4, 4, 0},
		{5, 4, 0},
		{42, 4, 2},
		{-1, 4, 3},
		{1 << 40, 4, 0},
		{7, 1, 0},
	}
	for _, p := range pinned {
		if got := ShardOf(p.v, p.n); got != p.s {
			t.Errorf("ShardOf(%d, %d) = %d, want %d", p.v, p.n, got, p.s)
		}
	}
	for v := int64(-500); v < 500; v++ {
		s := ShardOf(v, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%d, 4) = %d out of range", v, s)
		}
	}
}

// TestPartitionDisjointUnion checks the partition invariant the whole
// tier rests on: per relation, the shard slices are disjoint, their
// union is the original, order is preserved within each slice, and
// tuples land exactly where ShardOf says.
func TestPartitionDisjointUnion(t *testing.T) {
	db := latticeDB()
	for _, n := range []int{1, 2, 4, 7} {
		dbs, routing, err := Partition(db, n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		if routing.Shards != n || len(dbs) != n {
			t.Fatalf("Partition(%d): got %d dbs, routing %+v", n, len(dbs), routing)
		}
		for _, name := range db.Names() {
			orig, _ := db.Get(name)
			arity := orig.Arity()
			var union []int64
			// Concatenating the slices in shard-of order of the original
			// scan must reproduce the original flat data exactly.
			heads := make([]int, n)
			total := 0
			for i, pdb := range dbs {
				pr, err := pdb.Get(name)
				if err != nil {
					t.Fatalf("shard %d lost relation %s: %v", i, name, err)
				}
				data := pr.Data()
				total += len(data) / arity
				for off := 0; off < len(data); off += arity {
					if s := ShardOf(data[off], n); s != i {
						t.Fatalf("shard %d of %d holds %s tuple with lead %d (ShardOf=%d)", i, n, name, data[off], s)
					}
				}
			}
			if total != orig.Len() {
				t.Fatalf("%s over %d shards: %d tuples, want %d", name, n, total, orig.Len())
			}
			data := orig.Data()
			for off := 0; off < len(data); off += arity {
				i := ShardOf(data[off], n)
				pr, _ := dbs[i].Get(name)
				pd := pr.Data()
				at := heads[i] * arity
				for k := 0; k < arity; k++ {
					union = append(union, pd[at+k])
					if pd[at+k] != data[off+k] {
						t.Fatalf("%s shard %d tuple %d diverges from original order", name, i, heads[i])
					}
				}
				heads[i]++
			}
			_ = union
		}
		// Keep must agree with Partition slice by slice.
		for i := 0; i < n; i++ {
			kept, err := Keep(db, i, n)
			if err != nil {
				t.Fatalf("Keep(%d/%d): %v", i, n, err)
			}
			for _, name := range db.Names() {
				a, _ := dbs[i].Get(name)
				b, _ := kept.Get(name)
				if a.Len() != b.Len() {
					t.Fatalf("Keep(%d/%d) %s: %d tuples, Partition says %d", i, n, name, b.Len(), a.Len())
				}
			}
		}
	}
	if _, _, err := Partition(db, 0); err == nil {
		t.Fatal("Partition(0) accepted")
	}
	if _, err := Keep(db, 3, 2); err == nil {
		t.Fatal("Keep(3/2) accepted")
	}
}

func mustParse(t *testing.T, s string) *cq.Query {
	t.Helper()
	q, err := cq.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRouteDecisions walks the shardability rule: common leading
// variable fans to all shards, constant-led goes to one, everything
// else is refused with the typed error.
func TestRouteDecisions(t *testing.T) {
	r := Routing{Shards: 4}
	shardable := []string{
		"E(x,y)",
		"E(x,y), E(x,z)",
		"E(x,y), E(x,z), E(x,w)",
		"E(x,y), R(x,z)",
		"E(x,5), E(x,z)", // leading terms are all the variable x
	}
	for _, s := range shardable {
		rp, err := r.Route(mustParse(t, s))
		if err != nil {
			t.Fatalf("Route(%s): %v", s, err)
		}
		if rp.Var != "x" || len(rp.Shards) != 4 {
			t.Fatalf("Route(%s) = %+v, want all 4 shards on x", s, rp)
		}
	}

	rp, err := r.Route(mustParse(t, "E(3,y), E(3,z)"))
	if err != nil {
		t.Fatalf("constant-led route: %v", err)
	}
	if rp.Var != "" || len(rp.Shards) != 1 || rp.Shards[0] != ShardOf(3, 4) {
		t.Fatalf("constant-led route = %+v, want single shard %d", rp, ShardOf(3, 4))
	}

	// Constants 3 and 4 both hash to shard 0 under n=4, so a query led
	// by both is still single-shard answerable and must route, not fail.
	if ShardOf(3, 4) != ShardOf(4, 4) {
		t.Fatal("test constants 3 and 4 no longer collide; pick colliding ones")
	}
	rp, err = r.Route(mustParse(t, "E(3,y), E(4,z)"))
	if err != nil || len(rp.Shards) != 1 {
		t.Fatalf("co-located constants route = %+v, %v", rp, err)
	}

	refused := []string{
		"E(x,y), E(y,z), E(x,z)", // triangle: y leads the second atom
		"E(x,y), E(z,x)",         // distinct leading variables
		"E(x,y), E(3,z)",         // mixed leading variable and constant
		"E(1,y), E(2,z)",         // constants on two different shards
	}
	for _, s := range refused {
		if _, err := r.Route(mustParse(t, s)); !errors.Is(err, ErrNotShardable) {
			t.Fatalf("Route(%s) = %v, want ErrNotShardable", s, err)
		}
	}
	if ShardOf(1, 4) == ShardOf(2, 4) {
		t.Fatal("test constants 1 and 2 collide; pick different ones")
	}
}

// TestSplitUpdateRouting checks deltas route exactly like base data.
func TestSplitUpdateRouting(t *testing.T) {
	req := server.UpdateRequest{
		Relation: "E",
		Inserts:  [][]int64{{1, 9}, {2, 9}, {3, 9}, {4, 9}, {5, 9}},
		Deletes:  [][]int64{{42, 7}},
	}
	parts, err := SplitUpdate(req, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	seen := 0
	for i, p := range parts {
		if p.Relation != "E" {
			t.Fatalf("part %d relation %q", i, p.Relation)
		}
		for _, tup := range p.Inserts {
			seen++
			if ShardOf(tup[0], 4) != i {
				t.Fatalf("insert %v routed to shard %d", tup, i)
			}
		}
		for _, tup := range p.Deletes {
			seen++
			if ShardOf(tup[0], 4) != i {
				t.Fatalf("delete %v routed to shard %d", tup, i)
			}
		}
	}
	if seen != 6 {
		t.Fatalf("routed %d tuples, want 6", seen)
	}
	if _, err := SplitUpdate(server.UpdateRequest{Relation: "E", Inserts: [][]int64{{}}}, 2); err == nil {
		t.Fatal("empty tuple routed")
	}
}
