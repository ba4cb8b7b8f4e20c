package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// articulationPoints returns the cut vertices of g (nodes whose removal
// increases the number of connected components), sorted, via Tarjan's
// linear-time low-link algorithm. They are exactly the size-1 separating
// sets, so the routine is an independent cross-check for the flow-based
// separator enumeration.
func (g *Undirected) articulationPoints() []int {
	n := g.n
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	isArt := make([]bool, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0

	// Iterative DFS to stay safe on long paths.
	type frame struct {
		v       int
		nbrs    []int
		nextIdx int
		childCt int
	}
	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		stack := []frame{{v: start, nbrs: g.Neighbors(start)}}
		disc[start] = timer
		low[start] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.nextIdx < len(f.nbrs) {
				w := f.nbrs[f.nextIdx]
				f.nextIdx++
				if disc[w] == -1 {
					parent[w] = f.v
					f.childCt++
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, frame{v: w, nbrs: g.Neighbors(w)})
				} else if w != parent[f.v] && disc[w] < low[f.v] {
					low[f.v] = disc[w]
				}
				continue
			}
			// Post-order: propagate low-links to the parent.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
				if p.v != start && low[f.v] >= disc[p.v] {
					isArt[p.v] = true
				}
			} else if f.v == start && f.childCt > 1 {
				isArt[start] = true
			}
		}
		// Root rule: the DFS root is an articulation point iff it has
		// more than one DFS child; handled above via childCt, but childCt
		// lives in the popped frame — recompute from the final frame is
		// already done when the root frame pops.
	}
	var out []int
	for v := 0; v < n; v++ {
		if isArt[v] {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func bruteForceArticulation(g *Undirected) []int {
	base := len(g.ComponentsAvoiding(nil))
	var out []int
	for v := 0; v < g.N(); v++ {
		if len(g.ComponentsAvoiding([]int{v})) > base {
			out = append(out, v)
		}
	}
	return out
}

func TestArticulationKnownGraphs(t *testing.T) {
	// Path 0-1-2-3-4: interior nodes are articulation points.
	if got := path(5).articulationPoints(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("path articulation = %v", got)
	}
	// Cycles have none.
	if got := cycle(6).articulationPoints(); got != nil {
		t.Fatalf("cycle articulation = %v", got)
	}
	// Cliques have none.
	if got := clique(5).articulationPoints(); got != nil {
		t.Fatalf("clique articulation = %v", got)
	}
	// Two triangles sharing node 2 (bowtie): 2 is the cut vertex.
	bow := New(5)
	bow.AddEdge(0, 1)
	bow.AddEdge(0, 2)
	bow.AddEdge(1, 2)
	bow.AddEdge(2, 3)
	bow.AddEdge(2, 4)
	bow.AddEdge(3, 4)
	if got := bow.articulationPoints(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("bowtie articulation = %v", got)
	}
}

func TestArticulationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(10)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(i, j)
				}
			}
		}
		got := g.articulationPoints()
		want := bruteForceArticulation(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: articulation = %v, brute force = %v (edges %v)",
				trial, got, want, g.Edges())
		}
	}
}

// TestArticulationAgreesWithSeparatorEnumeration cross-checks the two
// independent implementations: the size-1 separating sets found by the
// ranked enumeration must be exactly the articulation points (for
// connected graphs, where every separator leaves a component disjoint
// from the empty constraint set).
func TestArticulationAgreesWithSeparatorEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(7)
		g := New(n)
		// Random connected graph: a random spanning path plus extras.
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(perm[i], perm[i+1])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					g.AddEdge(i, j)
				}
			}
		}
		var size1 []int
		EnumerateConstrainedSeparators(g, nil, 1, func(s []int) bool {
			if len(s) == 1 {
				size1 = append(size1, s[0])
			}
			return true
		})
		if size1 == nil {
			size1 = []int{}
		}
		sortInts(size1)
		want := g.articulationPoints()
		if want == nil {
			want = []int{}
		}
		if !reflect.DeepEqual(size1, want) {
			t.Fatalf("trial %d: enumeration size-1 = %v, articulation = %v (edges %v)",
				trial, size1, want, g.Edges())
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
