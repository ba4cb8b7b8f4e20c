package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func path(n int) *Undirected {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Undirected {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func clique(n int) *Undirected {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestBasicOperations(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 1) // self loop ignored
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge missing")
	}
	if g.HasEdge(1, 1) {
		t.Fatal("self loop stored")
	}
	if g.HasEdge(0, 9) || g.HasEdge(-1, 0) {
		t.Fatal("out-of-range HasEdge returned true")
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	if len(g.Neighbors(3)) != 0 || len(g.Neighbors(1)) != 2 {
		t.Fatal("degrees wrong")
	}
	if got := g.Edges(); !reflect.DeepEqual(got, [][2]int{{0, 1}, {1, 2}}) {
		t.Fatalf("Edges = %v", got)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	comps := g.ComponentsAvoiding(nil)
	want := [][]int{{0, 1}, {2, 3, 4}, {5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("ComponentsAvoiding(nil) = %v, want %v", comps, want)
	}
	if got := len(path(4).ComponentsAvoiding(nil)); got != 1 {
		t.Fatalf("path has %d components, want 1", got)
	}
}

func TestComponentsAvoiding(t *testing.T) {
	g := path(5)
	comps := g.ComponentsAvoiding([]int{2})
	want := [][]int{{0, 1}, {3, 4}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("ComponentsAvoiding = %v, want %v", comps, want)
	}
	if !g.IsSeparator([]int{2}) {
		t.Fatal("middle of path not a separator")
	}
	if g.IsSeparator([]int{0}) {
		t.Fatal("endpoint reported as separator")
	}
}

func TestInducedAndWithout(t *testing.T) {
	g := cycle(5)
	sub, orig := g.Induced([]int{0, 1, 3, 3})
	if sub.N() != 3 || !reflect.DeepEqual(orig, []int{0, 1, 3}) {
		t.Fatalf("Induced: n=%d orig=%v", sub.N(), orig)
	}
	if !sub.HasEdge(0, 1) || sub.HasEdge(1, 2) {
		t.Fatal("induced edges wrong")
	}
	wo, orig2 := g.Without([]int{2})
	if wo.N() != 4 || !reflect.DeepEqual(orig2, []int{0, 1, 3, 4}) {
		t.Fatalf("Without: n=%d orig=%v", wo.N(), orig2)
	}
}

func TestMinConstrainedSeparatorOnPath(t *testing.T) {
	g := path(5)
	s, ok := MinConstrainedSeparator(g, nil, nil, nil, 0)
	if !ok || len(s) != 1 {
		t.Fatalf("min separator of path = %v ok=%v, want singleton", s, ok)
	}
	if !g.IsSeparator(s) {
		t.Fatalf("%v is not a separator", s)
	}
	// Constrain away from {0,1}: some component must avoid them.
	s, ok = MinConstrainedSeparator(g, []int{0, 1}, nil, nil, 0)
	if !ok {
		t.Fatal("no constrained separator found")
	}
	comps := g.ComponentsAvoiding(s)
	found := false
	for _, comp := range comps {
		hit := false
		for _, v := range comp {
			if v == 0 || v == 1 {
				hit = true
			}
		}
		if !hit {
			found = true
		}
	}
	if !found {
		t.Fatalf("separator %v leaves no component disjoint from C", s)
	}
}

func TestMinConstrainedSeparatorOnCycle(t *testing.T) {
	g := cycle(6)
	s, ok := MinConstrainedSeparator(g, nil, nil, nil, 0)
	if !ok || len(s) != 2 {
		t.Fatalf("cycle min separator = %v, want size 2", s)
	}
	if !g.IsSeparator(s) {
		t.Fatalf("%v does not separate the cycle", s)
	}
}

func TestMinConstrainedSeparatorClique(t *testing.T) {
	if s, ok := MinConstrainedSeparator(clique(4), nil, nil, nil, 0); ok {
		t.Fatalf("clique has no separator, got %v", s)
	}
}

func TestMinConstrainedSeparatorConstraints(t *testing.T) {
	g := path(5)
	// Force 1 in, 2 out: S must contain 1, exclude 2, still separate.
	s, ok := MinConstrainedSeparator(g, nil, []int{1}, []int{2}, 0)
	if !ok {
		t.Fatal("no separator under constraints")
	}
	if !containsSorted(s, 1) {
		t.Fatalf("include violated: %v", s)
	}
	if containsSorted(s, 2) {
		t.Fatalf("exclude violated: %v", s)
	}
	if !g.IsSeparator(s) {
		t.Fatalf("%v not a separator", s)
	}
	// Contradictory constraints.
	if _, ok := MinConstrainedSeparator(g, nil, []int{2}, []int{2}, 0); ok {
		t.Fatal("contradictory constraints accepted")
	}
	// Size bound below the minimum.
	if _, ok := MinConstrainedSeparator(cycle(6), nil, nil, nil, 1); ok {
		t.Fatal("bound 1 on a cycle should be infeasible")
	}
}

func TestEnumerateIncreasingSizeNoRepeats(t *testing.T) {
	g := cycle(6)
	var sizes []int
	seen := make(map[string]bool)
	EnumerateConstrainedSeparators(g, nil, 3, func(s []int) bool {
		if !g.IsSeparator(s) {
			t.Errorf("yielded non-separator %v", s)
		}
		key := intKey(s)
		if seen[key] {
			t.Errorf("separator %v yielded twice", s)
		}
		seen[key] = true
		sizes = append(sizes, len(s))
		return true
	})
	if len(sizes) == 0 {
		t.Fatal("no separators enumerated")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("sizes not non-decreasing: %v", sizes)
		}
	}
	// A 6-cycle has 9 size-2 separators (non-adjacent vertex pairs).
	count2 := 0
	for _, s := range sizes {
		if s == 2 {
			count2++
		}
	}
	if count2 != 9 {
		t.Errorf("found %d size-2 separators of the 6-cycle, want 9", count2)
	}
}

func TestKSmallestSeparators(t *testing.T) {
	got := KSmallestSeparators(cycle(5), nil, 2, 3)
	if len(got) != 3 {
		t.Fatalf("got %d separators, want 3", len(got))
	}
	for _, s := range got {
		if len(s) != 2 {
			t.Fatalf("5-cycle separator %v has size %d, want 2", s, len(s))
		}
	}
}

// Property: on random graphs, every enumerated set is a separator, sizes
// are non-decreasing, there are no repeats, and the first result has
// minimum size (cross-checked by brute force).
func TestEnumerationPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(4)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.45 {
					g.AddEdge(i, j)
				}
			}
		}
		bruteMin := bruteForceMinSeparator(g)
		var got [][]int
		EnumerateConstrainedSeparators(g, nil, n, func(s []int) bool {
			got = append(got, s)
			return len(got) < 10
		})
		if bruteMin == -1 {
			if len(got) != 0 {
				t.Fatalf("trial %d: graph has no separator but enumeration yielded %v", trial, got)
			}
			continue
		}
		if len(got) == 0 {
			t.Fatalf("trial %d: separator of size %d exists but none enumerated", trial, bruteMin)
		}
		if len(got[0]) != bruteMin {
			t.Fatalf("trial %d: first separator %v has size %d, brute-force min is %d",
				trial, got[0], len(got[0]), bruteMin)
		}
		for i := 1; i < len(got); i++ {
			if len(got[i]) < len(got[i-1]) {
				t.Fatalf("trial %d: non-monotone sizes %v", trial, got)
			}
			if !g.IsSeparator(got[i]) {
				t.Fatalf("trial %d: %v not a separator", trial, got[i])
			}
		}
	}
}

func bruteForceMinSeparator(g *Undirected) int {
	n := g.N()
	for size := 0; size < n-1; size++ {
		var rec func(start int, cur []int) bool
		rec = func(start int, cur []int) bool {
			if len(cur) == size {
				return g.IsSeparator(cur)
			}
			for v := start; v < n; v++ {
				if rec(v+1, append(cur, v)) {
					return true
				}
			}
			return false
		}
		if rec(0, nil) {
			return size
		}
	}
	return -1
}
