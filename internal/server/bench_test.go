package server

import (
	"bytes"
	"cmp"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// BenchmarkReadAfterUpdate is the server rung for reads under live
// deltas: one 16-tuple update, then one read of each of a triangle, a
// 3-path and a constant-head 2-hop — each the first execution of its
// plan at the new version. The delta alternates between swapping eight
// more edges out and swapping them back in, on top of eight swapped out
// for good, so the relation stays 16 or 32 tuples from its base: always
// patched, never compacted, and every iteration does the same work.
func BenchmarkReadAfterUpdate(b *testing.B) {
	g := dataset.TriadicPA(260, 6, 0.5, 33)
	rel := g.EdgeRelation("E", false)
	e := NewEngine(g.DB(false), Config{Workers: 1})
	var orig, fresh [][]int64
	for i := 0; i < 16; i++ {
		orig = append(orig, append([]int64(nil), rel.Tuple(i*37)...))
		fresh = append(fresh, []int64{int64(9000 + i), int64(9001 + i)})
	}
	swaps := [2]UpdateRequest{
		{Relation: "E", Deletes: orig[8:], Inserts: fresh[8:]},
		{Relation: "E", Deletes: fresh[8:], Inserts: orig[8:]},
	}
	reads := []Request{
		{Query: "E(x,y), E(y,z), E(x,z)"},
		{Query: "E(a,b), E(b,c), E(c,d)"},
		{Query: "E(5,y), E(y,z)"},
	}
	step := func(req UpdateRequest) {
		if res, err := e.Update(req); err != nil || !res.Applied || res.Compacted {
			b.Fatalf("update: %+v, %v", res, err)
		}
		for _, req := range reads {
			if _, err := e.Do(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	step(UpdateRequest{Relation: "E", Deletes: orig[:8], Inserts: fresh[:8]})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(swaps[i&1])
	}
}

// pointLookups is the point-lookup mix: 64 constant-head 2-hops
// "E(c,y), E(y,z)" on TriadicPA(2100, 6, 0.35, 7), c the middle vertex
// of each of 64 equal slices of the vertices ranked by 2-hop
// neighbourhood size, one in eight an eval at limit 10. The texts are
// canonical and the engine has answered each once, so every request is
// a plan-cache hit.
func pointLookups(b *testing.B) (*Engine, []Request) {
	g := dataset.TriadicPA(2100, 6, 0.35, 7)
	out := map[int64][]int64{}
	for _, e := range g.Edges {
		out[e[0]] = append(out[e[0]], e[1])
	}
	type ranked struct{ v, twoHop int64 }
	var all []ranked
	for v, nbrs := range out {
		r := ranked{v: v}
		for _, y := range nbrs {
			r.twoHop += int64(len(out[y]))
		}
		all = append(all, r)
	}
	slices.SortFunc(all, func(a, b ranked) int { return cmp.Or(cmp.Compare(a.twoHop, b.twoHop), cmp.Compare(a.v, b.v)) })
	e := NewEngine(g.DB(false), Config{Workers: 1})
	reqs := make([]Request, 64)
	for i := range reqs {
		lo, hi := i*len(all)/len(reqs), (i+1)*len(all)/len(reqs)
		reqs[i] = Request{Query: fmt.Sprintf("E(%d,y), E(y,z)", all[(lo+hi)/2].v)}
		if i%8 == 7 {
			reqs[i].Mode, reqs[i].Limit = "eval", 10
		}
		if _, err := e.Do(reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	return e, reqs
}

// BenchmarkEngineDo is the Engine.Do rung: one warm point lookup per
// op, in process, no transport.
func BenchmarkEngineDo(b *testing.B) {
	e, reqs := pointLookups(b)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Do(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var next atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := e.Do(reqs[next.Add(1)%int64(len(reqs))]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkHandler is the HTTP rung without a socket: one warm point
// lookup per op through NewHandler's ServeHTTP, from the request body's
// bytes to the reply's — decode, execute and encode. Building the
// httptest request and recorder is part of each op.
func BenchmarkHandler(b *testing.B) {
	e, reqs := pointLookups(b)
	h := NewHandler(e)
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		body := fmt.Sprintf(`{"query": %q}`, req.Query)
		if req.Mode != "" {
			body = fmt.Sprintf(`{"query": %q, "mode": %q, "limit": %d}`, req.Query, req.Mode, req.Limit)
		}
		bodies[i] = []byte(body)
	}
	serve := func(body []byte) error {
		r := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"plan_cached":true`)) {
			return fmt.Errorf("status %d, body %s", w.Code, w.Body)
		}
		return nil
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := serve(bodies[i%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var next atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := serve(bodies[next.Add(1)%int64(len(bodies))]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
