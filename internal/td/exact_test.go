package td

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/queries"
)

// exactTreewidth computes the treewidth of g exactly via the classic
// Held–Karp-style dynamic program over elimination orders (Bodlaender et
// al.): tw(S) — the best width achievable eliminating exactly the vertex
// set S first — satisfies
//
//	tw(S) = min over v∈S of max(tw(S\{v}), |N(v) in g[ (V\S) ∪ {v} ] ... |)
//
// where the degree term is v's neighborhood size after S\{v} was
// eliminated, i.e. the number of vertices outside S reachable from v
// through S\{v}. Exponential in |V|; intended for graphs of up to ~16
// nodes (query Gaifman graphs), where it serves as the ground truth the
// heuristics (min-fill, separator enumeration) are tested against.
func exactTreewidth(g *graph.Undirected) int {
	n := g.N()
	if n == 0 {
		return -1 // convention: empty graph has width -1 (no bags needed)
	}
	if n > 24 {
		panic("td: exactTreewidth is exponential; refuse graphs above 24 nodes")
	}
	adj := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			adj[v] |= 1 << uint(w)
		}
	}
	full := uint32(1)<<uint(n) - 1

	// reach(v, S): vertices outside S∪{v} adjacent to v or connected to
	// v through vertices of S (the fill-in neighborhood of v when S was
	// eliminated before it).
	reach := func(v int, s uint32) int {
		visited := uint32(1 << uint(v))
		frontier := adj[v]
		result := uint32(0)
		for frontier != 0 {
			b := frontier & -frontier
			frontier &^= b
			if visited&b != 0 {
				continue
			}
			visited |= b
			w := bits.TrailingZeros32(b)
			if s&b != 0 {
				frontier |= adj[w] &^ visited
			} else {
				result |= b
			}
		}
		return bits.OnesCount32(result)
	}

	const inf = 1 << 30
	dp := make([]int32, full+1)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = -1 // eliminating nothing costs width -1 (max with degrees later)
	for s := uint32(1); s <= full; s++ {
		rest := s
		best := int32(inf)
		for rest != 0 {
			b := rest & -rest
			rest &^= b
			v := bits.TrailingZeros32(b)
			prev := dp[s&^b]
			if prev >= best {
				continue
			}
			d := int32(reach(v, s&^b))
			w := prev
			if d > w {
				w = d
			}
			if w < best {
				best = w
			}
		}
		dp[s] = best
	}
	return int(dp[full])
}

func TestExactTreewidthKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Undirected
		want int
	}{
		{"single node", graph.New(1), 0},
		{"edge", fromEdges(2, [][2]int{{0, 1}}), 1},
		{"path5", pathGraph(5), 1},
		{"cycle5", cycleGraph(5), 2},
		{"cycle8", cycleGraph(8), 2},
		{"K4", cliqueGraph(4), 3},
		{"K6", cliqueGraph(6), 5},
		{"tree", fromEdges(7, [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}}), 1},
		{"grid2x3", fromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}}), 2},
	}
	for _, tc := range cases {
		if got := exactTreewidth(tc.g); got != tc.want {
			t.Errorf("%s: treewidth = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func fromEdges(n int, edges [][2]int) *graph.Undirected {
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func pathGraph(n int) *graph.Undirected {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycleGraph(n int) *graph.Undirected {
	g := pathGraph(n)
	g.AddEdge(n-1, 0)
	return g
}

func cliqueGraph(n int) *graph.Undirected {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// TestMinFillNeverBeatsExact: min-fill is a heuristic upper bound; on
// random small graphs its width must be >= the exact treewidth, and the
// exact value must be achieved by SOME decomposition method on simple
// topologies.
func TestMinFillNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		q := queries.Random(4+rng.Intn(4), 0.3+rng.Float64()*0.4, rng.Int63())
		g := Gaifman(q)
		exact := exactTreewidth(g)
		mf := MinFillDecompose(q).Width()
		if mf < exact {
			t.Fatalf("trial %d: min-fill width %d below exact treewidth %d (impossible)", trial, mf, exact)
		}
		// Min-fill is known to be exact on graphs of treewidth <= 2.
		if exact <= 2 && mf != exact {
			t.Errorf("trial %d: min-fill width %d, exact %d on a width-%d graph",
				trial, mf, exact, exact)
		}
	}
}

func TestExactTreewidthOfQuery(t *testing.T) {
	if got := exactTreewidth(Gaifman(queries.Cycle(6))); got != 2 {
		t.Errorf("6-cycle treewidth = %d, want 2", got)
	}
	if got := exactTreewidth(Gaifman(queries.Clique(5))); got != 4 {
		t.Errorf("5-clique treewidth = %d, want 4", got)
	}
	if got := exactTreewidth(Gaifman(queries.Lollipop(3, 2))); got != 2 {
		t.Errorf("lollipop treewidth = %d, want 2", got)
	}
}

func TestExactTreewidthRefusesLargeGraphs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized graph")
		}
	}()
	exactTreewidth(graph.New(30))
}
