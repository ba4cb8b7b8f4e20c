package dataset

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

func validateGraph(t *testing.T, g *Graph) {
	t.Helper()
	seen := make(map[[2]int64]bool)
	for i, e := range g.Edges {
		if e[0] == e[1] {
			t.Fatalf("edge %d is a self loop: %v", i, e)
		}
		if e[0] < 0 || e[1] < 0 || e[0] >= int64(g.N) || e[1] >= int64(g.N) {
			t.Fatalf("edge %d out of range: %v (n=%d)", i, e, g.N)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 0.05, 3)
	validateGraph(t, g)
	if g.N != 100 {
		t.Fatalf("N = %d", g.N)
	}
	// Expected edges ~ 100*99*0.05 = 495; allow wide slack.
	if g.NumEdges() < 300 || g.NumEdges() > 700 {
		t.Fatalf("edge count %d far from expectation", g.NumEdges())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for name, gen := range map[string]func() *Graph{
		"er":   func() *Graph { return ErdosRenyi(60, 0.1, 7) },
		"pa":   func() *Graph { return PreferentialAttachment(60, 3, 7) },
		"tpa":  func() *Graph { return TriadicPA(60, 3, 0.5, 7) },
		"comm": func() *Graph { return Community(60, 5, 0.2, 0.01, 7) },
		"cliq": func() *Graph { return CliqueUnion(60, 40, 8, 1.6, 7) },
	} {
		a, b := gen(), gen()
		if !reflect.DeepEqual(a.Edges, b.Edges) {
			t.Errorf("%s: generator not deterministic", name)
		}
		validateGraph(t, a)
	}
}

func TestPreferentialAttachmentSkew(t *testing.T) {
	pa := PreferentialAttachment(400, 4, 11)
	er := ErdosRenyi(400, 8.0/400, 12)
	skewPA := degreeSkew(pa)
	skewER := degreeSkew(er)
	if skewPA <= skewER {
		t.Errorf("PA skew %.2f not above ER skew %.2f", skewPA, skewER)
	}
}

func degreeSkew(g *Graph) float64 {
	deg := make(map[int64]int)
	for _, e := range g.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	freqs := make([]int, 0, len(deg))
	for _, d := range deg {
		freqs = append(freqs, d)
	}
	return stats.SkewCoefficient(freqs)
}

func TestTriadicPAClusters(t *testing.T) {
	// Triadic closure should produce many more triangles than plain PA
	// at the same size.
	tri := triangles(TriadicPA(300, 4, 0.7, 5))
	plain := triangles(PreferentialAttachment(300, 4, 5))
	if tri <= plain {
		t.Errorf("triadic PA triangles %d not above plain PA %d", tri, plain)
	}
}

func triangles(g *Graph) int {
	adj := make(map[int64]map[int64]bool)
	und := func(a, b int64) {
		if adj[a] == nil {
			adj[a] = make(map[int64]bool)
		}
		adj[a][b] = true
	}
	for _, e := range g.Edges {
		und(e[0], e[1])
		und(e[1], e[0])
	}
	count := 0
	for a, nbrs := range adj {
		for b := range nbrs {
			if b <= a {
				continue
			}
			for c := range adj[b] {
				if c > b && adj[a][c] {
					count++
				}
			}
		}
	}
	return count
}

func TestEdgeRelation(t *testing.T) {
	g := &Graph{Name: "g", N: 3, Edges: [][2]int64{{0, 1}, {1, 2}}}
	r := g.EdgeRelation("E", false)
	if r.Len() != 2 {
		t.Fatalf("directed relation has %d tuples", r.Len())
	}
	sym := g.EdgeRelation("E", true)
	if sym.Len() != 4 {
		t.Fatalf("symmetric relation has %d tuples", sym.Len())
	}
	db := g.DB(false)
	if _, err := db.Get("E"); err != nil {
		t.Fatal(err)
	}
}

func TestLoad(t *testing.T) {
	input := "# comment\n0 1\n1 2\n\n2 0\n1 2\n"
	g, err := Load("test", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.NumEdges() != 3 {
		t.Fatalf("loaded n=%d edges=%d", g.N, g.NumEdges())
	}
	validateGraph(t, g)

	if _, err := Load("bad", strings.NewReader("0\n")); err == nil {
		t.Error("single-field line accepted")
	}
	if _, err := Load("bad", strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric line accepted")
	}
	if _, err := Load("bad", strings.NewReader("-1 2\n")); err == nil {
		t.Error("negative id accepted")
	}
}

func TestSNAPAllNamesAndSizes(t *testing.T) {
	gs := SNAPAll(1)
	if len(gs) != 5 {
		t.Fatalf("SNAPAll returned %d graphs", len(gs))
	}
	wantNames := []string{"wiki-Vote*", "p2p-Gnutella04*", "ca-GrQc*", "ego-Facebook*", "ego-Twitter*"}
	for i, g := range gs {
		if g.Name != wantNames[i] {
			t.Errorf("graph %d named %q, want %q", i, g.Name, wantNames[i])
		}
		validateGraph(t, g)
		if g.NumEdges() == 0 {
			t.Errorf("%s has no edges", g.Name)
		}
	}
	// Scale grows the graphs.
	if WikiVote(2).N <= WikiVote(1).N {
		t.Error("Scale=2 did not grow wiki-Vote*")
	}
}

func TestIMDBCastShape(t *testing.T) {
	db := IMDBCast(DefaultIMDB())
	male, err := db.Get("male_cast")
	if err != nil {
		t.Fatal(err)
	}
	female, err := db.Get("female_cast")
	if err != nil {
		t.Fatal(err)
	}
	if male.Len() == 0 || female.Len() == 0 {
		t.Fatal("empty cast relations")
	}
	// The paper's key property: person_id (col 0) much more skewed than
	// movie_id (col 1).
	pSkew := stats.ColumnSkew(male.Tuples(), 0)
	mSkew := stats.ColumnSkew(male.Tuples(), 1)
	if pSkew <= 1.5*mSkew {
		t.Errorf("person skew %.2f not well above movie skew %.2f", pSkew, mSkew)
	}
	// Disjoint person populations.
	for i := 0; i < female.Len(); i++ {
		if female.Tuple(i)[0] < int64(DefaultIMDB().Persons) {
			t.Fatal("female person ids overlap male ids")
		}
	}
	// Zero config falls back to defaults.
	if IMDBCast(IMDBConfig{}).Len() != 2 {
		t.Error("zero config did not fall back to defaults")
	}
}

// TestLoadAllocs bounds Load's heap objects: a line is split and parsed
// in place, so what a load allocates grows with the edge list's storage,
// not with its lines.
func TestLoadAllocs(t *testing.T) {
	const lines = 10000
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i%977, i)
	}
	text := sb.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Load("g", strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > lines/100 {
		t.Errorf("loading %d lines allocated %.0f objects, want at most %d", lines, allocs, lines/100)
	}
}
