package td

import (
	"reflect"
	"testing"

	"repro/internal/cq"
	"repro/internal/queries"
)

// fig3Query is the CQ of the paper's Fig. 3 (Example 3.1).
func fig3Query() *cq.Query {
	return cq.New(
		cq.NewAtom("R", "x1", "x2"),
		cq.NewAtom("R", "x2", "x3"),
		cq.NewAtom("R", "x3", "x4"),
		cq.NewAtom("R", "x2", "x4"),
		cq.NewAtom("R", "x3", "x5"),
		cq.NewAtom("R", "x4", "x6"),
	)
}

// fig3TD is the ordered TD on the right of Fig. 3.
func fig3TD() *TD {
	return MustNew(
		[][]int{{0, 1}, {1, 2, 3}, {2, 4}, {3, 5}},
		[]int{-1, 0, 1, 1},
	)
}

func TestFig3TDValid(t *testing.T) {
	if err := fig3TD().Validate(fig3Query()); err != nil {
		t.Fatalf("paper's example TD rejected: %v", err)
	}
}

func TestPreorderAndAdhesions(t *testing.T) {
	tree := fig3TD()
	if got := tree.Preorder(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Preorder = %v", got)
	}
	if got := tree.Adhesion(1); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Adhesion(1) = %v, want [1] (x2)", got)
	}
	if got := tree.Adhesion(2); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Adhesion(2) = %v, want [2] (x3)", got)
	}
	if got := tree.Adhesion(tree.Root); got != nil {
		t.Fatalf("root adhesion = %v", got)
	}
	if got := tree.MaxAdhesion(); got != 1 {
		t.Fatalf("MaxAdhesion = %d", got)
	}
	if got := tree.Depth(); got != 2 {
		t.Fatalf("Depth = %d", got)
	}
	if got := tree.Width(); got != 2 {
		t.Fatalf("Width = %d", got)
	}
}

// compatible reports whether t is compatible with the ordering: whenever
// owner(x_i) is the parent of owner(x_j), i < j (§2.3, after [10]).
func (t *TD) compatible(order []int) bool {
	numVars := len(order)
	owner := t.Owners(numVars)
	pos := make([]int, numVars)
	for i, x := range order {
		pos[x] = i
	}
	for xi := 0; xi < numVars; xi++ {
		for xj := 0; xj < numVars; xj++ {
			oi, oj := owner[xi], owner[xj]
			if oi == -1 || oj == -1 {
				continue
			}
			if t.Parent[oj] == oi && pos[xi] >= pos[xj] && xi != xj {
				return false
			}
		}
	}
	return true
}

func TestOwnersAndCompatibleOrder(t *testing.T) {
	tree := fig3TD()
	owners := tree.Owners(6)
	if !reflect.DeepEqual(owners, []int{0, 0, 1, 1, 2, 3}) {
		t.Fatalf("Owners = %v", owners)
	}
	order := tree.CompatibleOrder(6)
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("CompatibleOrder = %v", order)
	}
	if !tree.StronglyCompatible(order) {
		t.Fatal("derived order not strongly compatible")
	}
	if !tree.compatible(order) {
		t.Fatal("derived order not compatible")
	}
}

func TestStrongCompatibilityStricterThanCompatibility(t *testing.T) {
	// Root {0}, children {0,1} and {0,2}. Order 0,2,1 interleaves the
	// second child's variable before the first child's: still compatible
	// (parent-child pairs respect order) but swapping sibling ownership
	// violates strong compatibility only if preorder disagrees.
	tree := MustNew([][]int{{0}, {0, 1}, {0, 2}}, []int{-1, 0, 0})
	order := []int{0, 2, 1}
	if tree.StronglyCompatible(order) {
		t.Fatal("order 0,2,1 should violate strong compatibility (owner(1) ≺pre owner(2))")
	}
	if !tree.compatible(order) {
		t.Fatal("order 0,2,1 should still be (weakly) compatible")
	}
}

func TestValidateRejectsBadTDs(t *testing.T) {
	q := queries.Path(3) // E(x1,x2), E(x2,x3)
	// Missing coverage for the second atom.
	bad1 := MustNew([][]int{{0, 1}, {2}}, []int{-1, 0})
	if err := bad1.Validate(q); err == nil {
		t.Error("uncovered atom accepted")
	}
	// Disconnected occurrence of variable 0.
	bad2 := MustNew([][]int{{0, 1}, {1, 2}, {0, 2}}, []int{-1, 0, 1})
	if err := bad2.Validate(q); err == nil {
		t.Error("disconnected variable accepted")
	}
	// Out-of-range variable index.
	bad3 := MustNew([][]int{{0, 1}, {1, 2}, {9}}, []int{-1, 0, 1})
	if err := bad3.Validate(q); err == nil {
		t.Error("out-of-range bag variable accepted")
	}
}

func TestNewRejectsMalformedTrees(t *testing.T) {
	if _, err := New([][]int{{0}}, []int{0}); err == nil {
		t.Error("self-parent accepted")
	}
	if _, err := New([][]int{{0}, {1}}, []int{-1, -1}); err == nil {
		t.Error("two roots accepted")
	}
	if _, err := New([][]int{{0}}, []int{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := New([][]int{{0}, {1}}, []int{-1, 5}); err == nil {
		t.Error("out-of-range parent accepted")
	}
	if _, err := New([][]int{{0}, {1}, {2}}, []int{-1, 2, 1}); err == nil {
		t.Error("cycle accepted")
	}
}

func TestEliminateRedundancy(t *testing.T) {
	// Middle bag {1} is contained in both neighbors.
	tree := MustNew([][]int{{0, 1}, {1}, {1, 2}}, []int{-1, 0, 1})
	slim := tree.EliminateRedundancy()
	if slim.N() != 2 {
		t.Fatalf("redundancy elimination kept %d bags, want 2:\n%s", slim.N(), slim)
	}
	q := queries.Path(3)
	if err := slim.Validate(q); err != nil {
		t.Fatalf("slimmed TD invalid: %v", err)
	}
}

func TestGenericDecomposeProducesValidTDs(t *testing.T) {
	cases := []*cq.Query{
		queries.Path(4),
		queries.Path(7),
		queries.Cycle(4),
		queries.Cycle(6),
		queries.Lollipop(3, 2),
		queries.Clique(4),
		queries.Random(6, 0.5, 11),
		fig3Query(),
	}
	for _, q := range cases {
		tree := GenericDecompose(q, nil)
		if err := tree.Validate(q); err != nil {
			t.Errorf("GenericDecompose(%s) invalid: %v\n%s", q, err, tree)
		}
	}
}

func TestGenericDecomposeCliqueIsSingleton(t *testing.T) {
	tree := GenericDecompose(queries.Clique(4), nil)
	if tree.N() != 1 || tree.Canonical() != Singleton(4).Canonical() {
		t.Fatalf("clique decomposition is not the singleton:\n%s", tree)
	}
	// The singleton is valid for any query and strongly compatible with
	// any order (its one bag owns every depth): here, a path reversed.
	q := queries.Path(5)
	one := Singleton(len(q.Vars()))
	if err := one.Validate(q); err != nil {
		t.Fatalf("Singleton invalid for %s: %v", q, err)
	}
	if !one.StronglyCompatible([]int{4, 3, 2, 1, 0}) {
		t.Fatal("Singleton not strongly compatible with a reversed order")
	}
}

func TestEnumerateValidAndDeduplicated(t *testing.T) {
	for _, q := range []*cq.Query{queries.Cycle(5), queries.Path(5), queries.Lollipop(3, 2)} {
		tds := Enumerate(q, Options{})
		if len(tds) < 2 {
			t.Fatalf("Enumerate(%s) returned %d TDs", q, len(tds))
		}
		seen := make(map[string]bool)
		for _, tree := range tds {
			if err := tree.Validate(q); err != nil {
				t.Errorf("enumerated TD invalid for %s: %v\n%s", q, err, tree)
			}
			key := tree.Canonical()
			if seen[key] {
				t.Errorf("duplicate TD enumerated for %s:\n%s", q, tree)
			}
			seen[key] = true
			order := tree.CompatibleOrder(len(q.Vars()))
			if !tree.StronglyCompatible(order) {
				t.Errorf("compatible order of enumerated TD not strongly compatible:\n%s", tree)
			}
		}
	}
}

func TestEnumerateRespectsAdhesionBound(t *testing.T) {
	tds := Enumerate(queries.Cycle(6), Options{MaxAdhesion: 2})
	for _, tree := range tds {
		if tree.MaxAdhesion() > 2 {
			t.Errorf("TD exceeds adhesion bound:\n%s", tree)
		}
	}
}

func TestSelectPrefersSmallAdhesionsOnPaths(t *testing.T) {
	q := queries.Path(5)
	tree, order := Select(q, Options{}, CostConfig{})
	if tree.N() < 2 {
		t.Fatalf("Select returned the singleton TD for a path:\n%s", tree)
	}
	if tree.MaxAdhesion() != 1 {
		t.Errorf("path TD should have 1-dimensional adhesions, got %d:\n%s", tree.MaxAdhesion(), tree)
	}
	if !tree.StronglyCompatible(order) {
		t.Error("selected order not strongly compatible")
	}
}

func TestSelectSingletonForClique(t *testing.T) {
	q := queries.Clique(4)
	tree, _ := Select(q, Options{}, CostConfig{})
	if tree.N() != 1 {
		t.Fatalf("clique selection returned %d bags:\n%s", tree.N(), tree)
	}
}

func TestCostOrdersCacheStructures(t *testing.T) {
	// CS2 (two 1-dim caches) must cost less than CS3 (a 2-dim cache) for
	// the {3,2}-lollipop, mirroring Fig. 11's runtime ordering.
	cs2 := MustNew([][]int{{0, 1, 2}, {2, 3}, {3, 4}}, []int{-1, 0, 1})
	cs3 := MustNew([][]int{{0, 1, 2}, {1, 2, 3}, {3, 4}}, []int{-1, 0, 1})
	cfg := CostConfig{}
	if Cost(cs2, cfg) >= Cost(cs3, cfg) {
		t.Errorf("cost(CS2)=%.1f >= cost(CS3)=%.1f", Cost(cs2, cfg), Cost(cs3, cfg))
	}
}

func TestGaifmanGraph(t *testing.T) {
	g := Gaifman(queries.Cycle(4))
	if g.N() != 4 {
		t.Fatalf("Gaifman nodes = %d", g.N())
	}
	wantEdges := [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, wantEdges) {
		t.Fatalf("Gaifman edges = %v, want %v", got, wantEdges)
	}
}
