package leapfrog

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/trie"
)

// TestConstAtomsEmbedShared pins where a constant atom's index comes
// from: every leg of a query without repeated variables — constant in
// the leading column, in a later one, in two of three — is a shared
// source entry (the relation under the column order with the constant
// columns first), so a bind over a warm registry builds nothing and
// pays one registry probe per leg; a guard atom is a membership test
// and no leg at all; only an atom with a repeated variable still
// derives its relation and builds a private index.
func TestConstAtomsEmbedShared(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, r := relation.NewBuilder("E", 2), relation.NewBuilder("R", 3)
	for i := 0; i < 60; i++ {
		e.Add(rng.Int63n(8), rng.Int63n(8))
		r.Add(rng.Int63n(4), rng.Int63n(4), rng.Int63n(4))
	}
	e.Add(3, 4) // the guard below holds
	r.Add(2, 2, 1)
	db := relation.NewDB(e.Build(), r.Build())

	for _, tc := range []struct {
		query        string
		legs, shared int
		sigs         []string // the column orders drawn, in atom order
	}{
		{"E(3,y), E(y,z)", 2, 2, []string{"\x00\x01", "\x00\x01"}},
		{"E(y,3)", 1, 1, []string{"\x01\x00"}},
		{"R(1,y,2)", 1, 1, []string{"\x00\x02\x01"}},
		{"R(z,1,y)", 1, 1, []string{"\x01\x02\x00"}}, // order [y z]: constant, then y, then z
		{"E(x,y), E(3,4)", 1, 1, []string{"\x00\x01"}},
		{"E(9,y), E(y,z)", 2, 2, []string{"\x00\x01", "\x00\x01"}}, // no tuple carries 9
		{"R(x,x,1)", 1, 0, nil},
	} {
		q := cq.MustParse(tc.query)
		order := q.Vars()
		if tc.query == "R(z,1,y)" {
			order = []string{"y", "z"}
		}
		reg := trie.NewRegistry(0)
		if _, err := BuildWith(q, db, order, nil, reg); err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		warm := reg.Stats().Builds
		var c stats.Counters
		inst, err := BuildWith(q, db, order, &c, reg)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if len(inst.Legs()) != tc.legs || len(inst.Embedded()) != tc.shared {
			t.Fatalf("%s: %d legs, %d of them shared; want %d and %d",
				tc.query, len(inst.Legs()), len(inst.Embedded()), tc.legs, tc.shared)
		}
		for i, emb := range inst.Embedded() {
			if rel, _ := db.Get(q.Atoms[i].Rel); emb.Rel != rel || emb.Perm != tc.sigs[i] {
				t.Fatalf("%s: leg %d embeds %s under %q, want the base relation under %q",
					tc.query, i, emb.Rel.Name(), emb.Perm, tc.sigs[i])
			}
		}
		if got, want := c.TrieBuilds, int64(tc.legs-tc.shared); got != want {
			t.Fatalf("%s: warm bind built %d tries, want %d", tc.query, got, want)
		}
		if reg.Stats().Builds != warm || c.HashAccesses != int64(tc.shared) {
			t.Fatalf("%s: warm bind moved registry builds %d -> %d and charged %d probes, want %d",
				tc.query, warm, reg.Stats().Builds, c.HashAccesses, tc.shared)
		}
		want, err := naive.Count(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if got := Count(inst); got != want || inst.Empty() != (want == 0) {
			t.Fatalf("%s: count %d (empty %v), want %d", tc.query, got, inst.Empty(), want)
		}
	}
}

// BenchmarkBindConst times what a read pays to re-bind a kept layout of
// E(c,y), E(y,z) after an update: both indices come patched out of a
// warm registry, and the constant is bound on one of them. It
// alternates two snapshots so that every iteration changes tries.
func BenchmarkBindConst(b *testing.B) {
	rel := dataset.TriadicPA(700, 6, 0.5, 33).EdgeRelation("E", false)
	st := relation.NewStore(rel)
	var ins, del [][]int64
	for i := 0; i < 8; i++ {
		ins = append(ins, []int64{int64(9000 + i), int64(9001 + i)})
		del = append(del, append([]int64(nil), rel.Tuple(i*37)...))
	}
	v, _, err := st.ApplyDelta(ins, del)
	if err != nil {
		b.Fatal(err)
	}
	reg := trie.NewRegistry(0)
	reg.Observe(v)
	snaps := [2]*relation.DB{relation.NewDB(rel), relation.NewDB(v.Rel)}

	q := cq.New(
		cq.Atom{Rel: "E", Args: []cq.Term{cq.C(rel.Tuple(rel.Len() / 2)[0]), cq.V("y")}},
		cq.NewAtom("E", "y", "z"),
	)
	layout, err := NewLayout(q, q.Vars())
	if err != nil {
		b.Fatal(err)
	}
	opts := BuildOpts{Tries: reg}
	var counts [2]int64
	for i, db := range snaps {
		inst, err := layout.Bind(db, opts)
		if err != nil {
			b.Fatal(err)
		}
		if counts[i] = Count(inst); counts[i] == 0 {
			b.Fatal("the benchmark's constant matches nothing")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var inst *Instance
	for i := 0; i < b.N; i++ {
		if inst, err = layout.Bind(snaps[i&1], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := Count(inst); got != counts[(b.N-1)&1] {
		b.Fatalf("the last bind counts %d, want %d", got, counts[(b.N-1)&1])
	}
}
