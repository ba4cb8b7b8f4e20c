package server

import (
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
