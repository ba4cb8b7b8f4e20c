package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/stats"
)

// answerSet is one execution's answer in a form two engines can be
// compared on: scalars as they are, tuples both in delivery order under
// the reported variable order and as a set under a canonical one.
type answerSet struct {
	order  []string
	count  int64
	value  float64
	tuples [][]int64
}

// canonical returns the tuples with columns in sorted-variable order,
// sorted lexicographically: the result as a set, whatever order the plan
// enumerated it in.
func (a answerSet) canonical() [][]int64 {
	vars := slices.Clone(a.order)
	sort.Strings(vars)
	col := make([]int, len(vars))
	for i, v := range vars {
		col[i] = slices.Index(a.order, v)
	}
	out := make([][]int64, len(a.tuples))
	for i, tup := range a.tuples {
		row := make([]int64, len(col))
		for j, c := range col {
			row[j] = tup[c]
		}
		out[i] = row
	}
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i], out[j]) < 0 })
	return out
}

// answerOn runs req on e — through StreamCtx for mode "stream", which
// has no buffered response.
func answerOn(t *testing.T, e *Engine, req Request) (answerSet, QueryStats) {
	t.Helper()
	if req.Mode == "stream" {
		var a answerSet
		req.Mode = ""
		sum, err := e.StreamCtx(context.Background(), req,
			func(order []string) { a.order = order },
			func(mu []int64) bool {
				a.tuples = append(a.tuples, slices.Clone(mu))
				return true
			})
		if err != nil {
			t.Fatalf("stream %+v: %v", req, err)
		}
		a.count = sum.Count
		return a, QueryStats{}
	}
	resp, err := e.Do(req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	return answerSet{order: resp.Order, count: resp.Count, value: resp.Value, tuples: resp.Tuples}, resp.Stats
}

// TestUpdatedEngineMatchesFresh is the differential test of re-binding:
// an engine that has lived through a seeded update history — patches,
// compactions, registry budget evictions, a prepared statement, and
// under "adaptive" re-plans — against an engine booted fresh on the same
// snapshot, for every orderer and mode. Counts and aggregates must be
// identical; eval and stream must agree as result sets, and tuple for
// tuple in delivery order whenever the two engines report the same
// variable order (under the data-dependent cost orderer the long-lived
// engine keeps the order chosen at first compile or at the last
// compaction, so the orders may legitimately differ).
//
// Constants are bound on the shared indices the history patches, so the
// queries carry one in a leading column, one in a later column, one no
// tuple ever carries, and two the history moves on purpose: 500 heads no
// edge until step 1 inserts two (a prefix only the overlay holds) and
// none again once step 9 deletes them; 3 heads base edges until step 5
// deletes every one (a prefix whose base node is dead).
func TestUpdatedEngineMatchesFresh(t *testing.T) {
	const inserted, emptied = "E(500,y), E(y,z)", "E(3,y), E(y,z)"
	queries := []string{
		"E(x,y), E(y,z), E(x,z)",
		"E(a,b), E(b,c), E(c,d)",
		"E(7,y), E(y,z)",
		"E(x,y), R(y,z), E(z,x)",
		"E(x,7), E(x,z)",
		"E(9999,y), E(y,z)",
		inserted,
		emptied,
	}
	modes := []Request{
		{Mode: "count"},
		{Mode: "eval", Limit: 1 << 30},
		{Mode: "aggregate", Semiring: "sum"},
		{Mode: "aggregate", Semiring: "min"},
		{Mode: "stream"},
	}
	for _, ord := range []string{"cost", "greedy", "adaptive"} {
		t.Run(ord, func(t *testing.T) {
			base := Config{Workers: 1, Orderer: ord, CompactFraction: 0.15, AdaptThreshold: 0.01, AdaptRuns: 1}
			// Size the trie budget from a warm unbounded engine: room for
			// about half of what the workload indexes, so evictions and
			// resident indices coexist.
			probe := NewEngine(twoRelDB(), base)
			for _, q := range queries {
				answerOn(t, probe, Request{Query: q})
			}
			cfg := base
			cfg.TrieBudget = probe.Registry().Stats().Bytes / 2
			live := NewEngine(twoRelDB(), cfg)
			stmt, err := live.Prepare(Request{Query: queries[0]})
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(20260927))
			compactions, rebounds := 0, 0
			counts := map[string][]int64{} // per query, the count after each step
			for step := 0; step < 16; step++ {
				name := "E"
				if step%4 == 3 {
					name = "R"
				}
				rel, err := live.DB().Get(name)
				if err != nil {
					t.Fatal(err)
				}
				var ins, del [][]int64
				for i := 0; i < 1+rng.Intn(12); i++ {
					ins = append(ins, []int64{rng.Int63n(160), rng.Int63n(160)})
					if rel.Len() > 0 {
						del = append(del, slices.Clone(rel.Tuple(rng.Intn(rel.Len()))))
					}
				}
				switch step {
				case 1:
					ins = append(ins, []int64{500, 7}, []int64{500, 8})
				case 9:
					del = append(del, []int64{500, 7}, []int64{500, 8})
				case 5:
					for i := 0; i < rel.Len(); i++ {
						if rel.Tuple(i)[0] == 3 {
							del = append(del, slices.Clone(rel.Tuple(i)))
						}
					}
				}
				res, err := live.Update(UpdateRequest{Relation: name, Inserts: ins, Deletes: del})
				if err != nil {
					t.Fatal(err)
				}
				if res.Compacted {
					compactions++
				}

				fresh := NewEngine(live.DB(), base)
				for qi, q := range queries {
					for _, m := range modes {
						req := m
						req.Query = q
						if qi == 0 && step%2 == 0 {
							req.Query, req.Stmt = "", stmt.ID()
						}
						got, st := answerOn(t, live, req)
						req.Query, req.Stmt = q, ""
						want, _ := answerOn(t, fresh, req)
						if st.PlanRebound {
							rebounds++
						}
						if m.Mode == "count" {
							counts[q] = append(counts[q], got.count)
						}
						what := fmt.Sprintf("step %d %s %s/%s", step, q, m.Mode, m.Semiring)
						if got.count != want.count || got.value != want.value {
							t.Fatalf("%s: count %d value %v, fresh engine says %d and %v", what, got.count, got.value, want.count, want.value)
						}
						if !reflect.DeepEqual(got.canonical(), want.canonical()) {
							t.Fatalf("%s: result sets differ (orders %v and %v)", what, got.order, want.order)
						}
						if slices.Equal(got.order, want.order) && !reflect.DeepEqual(got.tuples, want.tuples) {
							t.Fatalf("%s: same order %v, different delivery sequence", what, got.order)
						}
					}
				}
			}
			s := live.Stats()
			if compactions == 0 || s.Registry.Evictions == 0 || rebounds == 0 || s.Plans.Rebinds == 0 {
				t.Fatalf("history exercised too little: %d compactions, %d evictions, %d re-bound responses, plans %v",
					compactions, s.Registry.Evictions, rebounds, s.Plans)
			}
			if ord == "adaptive" && s.Plans.Replans == 0 {
				t.Fatalf("adaptive history never re-planned: %v", s.Plans)
			}
			if c := counts[inserted]; c[0] != 0 || c[1] == 0 || c[8] == 0 || c[9] != 0 {
				t.Fatalf("%s was not inserted at step 1 and deleted at step 9: counts %v", inserted, c)
			}
			if c := counts[emptied]; c[4] == 0 || c[5] != 0 {
				t.Fatalf("%s was not emptied at step 5: counts %v", emptied, c)
			}
		})
	}
}

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
	before, err := stmt.CountCtx(context.Background())
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
			if n, err := stmt.CountCtx(context.Background()); err != nil || n != before+1 {
				t.Fatalf("reader after the update: %d, %v; want %d", n, err, before+1)
			}
		}
		if err := e.planFor(stmt, stmt.def, &old); err != nil {
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
	base, err := stmt.CountCtx(context.Background())
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
	got, err := stmt.CountCtx(context.Background())
	if want := seqCount(t, e.DB(), query); err != nil || got != want || got != base+updates {
		t.Fatalf("after the storm: engine %d (%v), fresh sequential run %d, want %d", got, err, want, base+updates)
	}
}
