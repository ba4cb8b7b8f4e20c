package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestSupersededReaderKeepsItsSnapshot walks the one interleaving the
// storm below can only hope to hit: a reader pins a snapshot, an update
// supersedes it and a newer reader re-binds the entry, and only then does
// the first reader reach the plan cache. It must execute its own
// snapshot, and must not leave its binding behind for anyone else.
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

// TestRebindStorm is the -race storm: one updater walks E through a
// known sequence of versions (version n holds exactly n more triangles
// than the load state, with deletes mixed in so compactions fall inside
// the run), a shrinker keeps evicting the registry so bindings are lost
// mid-flight, and readers — raw text and prepared — race each other to
// re-bind. Every response names the version it executed at, and its
// count must be that version's: a reader that ran another snapshot's
// binding, or a binding assembled across an install, cannot produce it.
// The last reader binds a constant instead: the head of the two-edge
// path that only version k holds, k the version it last saw or the one
// after, so the same constant is bound before the update that inserts
// it, on the overlay that carries it, and after the one that deletes it.
func TestRebindStorm(t *testing.T) {
	const query = "E(x,y), E(y,z), E(x,z)"
	e := NewEngine(twoRelDB(), Config{Workers: 1, CompactFraction: 0.05})
	stmt, err := e.Prepare(Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	base, err := stmt.countCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const updates, readers = 150, 6
	stop := make(chan struct{})
	var bg, rd sync.WaitGroup
	bg.Add(2)
	go func() { // updater
		defer bg.Done()
		defer close(stop)
		for n := int64(1); n <= updates; n++ {
			// A fresh triangle among ids no other edge touches, and the
			// two-edge path of ids the previous step left behind removed:
			// net +1 triangle per version.
			a := 10000 + 10*n
			req := UpdateRequest{Relation: "E",
				Inserts: [][]int64{{a, a + 1}, {a + 1, a + 2}, {a, a + 2}, {a + 5, a + 6}, {a + 6, a + 7}},
				Deletes: [][]int64{{a - 5, a - 4}, {a - 4, a - 3}},
			}
			if _, err := e.Update(req); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // shrinker
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Registry().Shrink(0)
			}
		}
	}()
	var reads, rebounds int64
	var mu sync.Mutex
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func(r int) {
			defer rd.Done()
			var n, rb, last int64
			for done := false; !done; n++ {
				select {
				case <-stop:
					done = true // one last read at the final version
				default:
				}
				req := Request{Query: query}
				k := max(last+n%2, 1)
				switch {
				case r == readers-1:
					req = Request{Query: fmt.Sprintf("E(%d,y), E(y,z)", 10000+10*k+5)}
				case r%2 == 1:
					req = Request{Stmt: stmt.ID()}
				}
				if n%3 == 2 {
					req.Mode, req.Limit = "eval", 1<<30
				}
				resp, err := e.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				v := int64(resp.Versions["E"])
				want := base + v
				if r == readers-1 {
					last, want = v, 0
					if v == k {
						want = 1
					}
				}
				if resp.Count != want || (req.Mode == "eval" && int64(len(resp.Tuples)) != resp.Count) {
					t.Errorf("reader %d: %s counts %d with %d tuples at E version %d, that version holds %d",
						r, req.Query, resp.Count, len(resp.Tuples), v, want)
					return
				}
				if resp.Stats.PlanRebound {
					rb++
				}
			}
			mu.Lock()
			reads, rebounds = reads+n, rebounds+rb
			mu.Unlock()
		}(r)
	}
	rd.Wait()
	bg.Wait()

	s := e.Stats()
	if s.Updates != updates || rebounds == 0 || s.Plans.Rebinds < rebounds {
		t.Fatalf("storm exercised too little: %d updates, %d re-bound responses of %d, plans %v", s.Updates, rebounds, reads, s.Plans)
	}
	got, err := stmt.countCtx(context.Background())
	if want := seqCount(t, e.DB(), query); err != nil || got != want || got != base+updates {
		t.Fatalf("after the storm: engine %d (%v), fresh sequential run %d, want %d", got, err, want, base+updates)
	}
}
