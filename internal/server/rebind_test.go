package server

import (
	"context"
	"testing"

	"repro/internal/stats"
)

// TestSupersededReaderKeepsItsSnapshot walks the one interleaving the
// concurrent service lattice (internal/cluster) cannot force: a reader
// pins a snapshot, an update supersedes it and a newer reader re-binds
// the entry, and only then does the first reader reach the plan cache.
// It must execute its own snapshot, and must not leave its binding
// behind for anyone else.
func TestSupersededReaderKeepsItsSnapshot(t *testing.T) {
	e := NewEngine(twoRelDB(), Config{Workers: 1})
	stmt, err := e.Prepare(Request{Query: "E(x,y), E(y,z), E(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.countCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	old := execution{c: new(stats.Counters)}
	var ep uint64
	old.db, old.vec, ep = e.snapshotFor(stmt.names)
	defer e.finish(ep)

	ins := [][]int64{{9001, 9002}, {9002, 9003}, {9001, 9003}}
	if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: ins}); err != nil {
		t.Fatal(err)
	}
	for _, rebinder := range []bool{false, true} {
		if rebinder {
			// The newer reader has stored its binding; without it the
			// entry is merely unbound, with the update's vector as floor.
			if n, err := stmt.countCtx(context.Background()); err != nil || n != before+1 {
				t.Fatalf("reader after the update: %d, %v; want %d", n, err, before+1)
			}
		}
		if err := e.planFor(stmt, &old); err != nil {
			t.Fatal(err)
		}
		if !old.cached || !old.rebound {
			t.Fatalf("superseded reader: cached=%v rebound=%v, want a private re-bind", old.cached, old.rebound)
		}
		res, err := old.plan.CountParallelCtx(context.Background(), old.pol)
		if err != nil || res.Count != before {
			t.Fatalf("superseded reader counted %d, %v; its snapshot holds %d", res.Count, err, before)
		}
		resp, err := stmt.Do(context.Background(), Request{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Count != before+1 || resp.Stats.PlanRebound != !rebinder {
			t.Fatalf("current reader after the superseded one: count %d rebound %v, want %d from the newer binding",
				resp.Count, resp.Stats.PlanRebound, before+1)
		}
	}
}
