package td

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cq"
)

// greedyOrder returns the greedy variable order of q (variable indices,
// best first): rank every variable with GreedyRanks and sort. The whole
// computation is O(vars·atoms + vars·log vars) and touches no data —
// this is the planning-cost contrast to the probe-based cost model.
func greedyOrder(q *cq.Query) []int {
	ranks := GreedyRanks(q)
	order := make([]int, len(ranks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ranks[order[a]].Less(ranks[order[b]])
	})
	return order
}

func varsOf(q *cq.Query, order []int) []string {
	vars := q.Vars()
	out := make([]string, len(order))
	for i, x := range order {
		out[i] = vars[x]
	}
	return out
}

func TestGreedyOrderConnectivity(t *testing.T) {
	// Triangle: all variables tie on every key, so the first-appearance
	// tiebreak decides.
	q := cq.New(
		cq.NewAtom("E", "x", "y"),
		cq.NewAtom("E", "y", "z"),
		cq.NewAtom("E", "x", "z"),
	)
	got := varsOf(q, greedyOrder(q))
	if want := []string{"x", "y", "z"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("greedy order = %v, want %v", got, want)
	}

	// A lollipop: z joins the triangle to the tail and is covered by
	// three atoms — highest connectivity, so it leads; the triangle
	// peers (coverage 2) precede the tail (t2 coverage 1).
	q = cq.New(
		cq.NewAtom("E", "x", "y"),
		cq.NewAtom("E", "y", "z"),
		cq.NewAtom("E", "x", "z"),
		cq.NewAtom("E", "z", "t1"),
		cq.NewAtom("E", "t1", "t2"),
	)
	got = varsOf(q, greedyOrder(q))
	if want := []string{"z", "x", "y", "t1", "t2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("greedy order = %v, want %v", got, want)
	}
}

func TestGreedyOrderConstantsFirst(t *testing.T) {
	// y is pinned through a constant-specialized atom; despite equal
	// coverage it must rank before x and z.
	q := cq.New(
		cq.NewAtom("E", "x", "y"),
		cq.NewAtom("E", "y", "z"),
		cq.Atom{Rel: "S", Args: []cq.Term{cq.V("y"), cq.C(5)}},
	)
	got := varsOf(q, greedyOrder(q))
	if got[0] != "y" {
		t.Fatalf("greedy order = %v, want y first (constant-specialized)", got)
	}
}

func TestGreedyOrderArityTiebreak(t *testing.T) {
	// x and y both have coverage 1, but y's covering atom is binary
	// while x's is ternary: the tighter atom wins the tie even though x
	// appears first in the query.
	q := cq.New(
		cq.NewAtom("R", "x", "a", "b"),
		cq.NewAtom("E", "y", "a"),
	)
	ranks := GreedyRanks(q)
	idx := q.VarIndex()
	if !ranks[idx["y"]].Less(ranks[idx["x"]]) {
		t.Fatalf("want y (binary atom) to outrank x (ternary atom): %+v vs %+v",
			ranks[idx["y"]], ranks[idx["x"]])
	}
}

// TestSelectGreedyValid checks the structural contract on a spread of
// query shapes: the selected TD is a valid decomposition, the returned
// order is a permutation strongly compatible with it, and no cost-model
// probe is involved (SelectGreedy takes no CostConfig at all).
func TestSelectGreedyValid(t *testing.T) {
	queries := map[string]*cq.Query{
		"triangle": cq.New(
			cq.NewAtom("E", "x", "y"), cq.NewAtom("E", "y", "z"), cq.NewAtom("E", "x", "z")),
		"4-path": cq.New(
			cq.NewAtom("E", "a", "b"), cq.NewAtom("E", "b", "c"), cq.NewAtom("E", "c", "d")),
		"5-cycle": cq.New(
			cq.NewAtom("E", "a", "b"), cq.NewAtom("E", "b", "c"), cq.NewAtom("E", "c", "d"),
			cq.NewAtom("E", "d", "e"), cq.NewAtom("E", "e", "a")),
		"const": cq.New(
			cq.NewAtom("E", "x", "y"),
			cq.Atom{Rel: "E", Args: []cq.Term{cq.V("y"), cq.C(3)}}),
	}
	for name, q := range queries {
		tree, order := SelectGreedy(q, Options{}, GreedyConfig{})
		if err := tree.Validate(q); err != nil {
			t.Fatalf("%s: selected TD invalid: %v", name, err)
		}
		if len(order) != len(q.Vars()) {
			t.Fatalf("%s: order %v is not a permutation of %v", name, order, q.Vars())
		}
		seen := make(map[int]bool)
		for _, x := range order {
			if seen[x] {
				t.Fatalf("%s: duplicate variable %d in order %v", name, x, order)
			}
			seen[x] = true
		}
		if !tree.StronglyCompatible(order) {
			t.Fatalf("%s: order %v not strongly compatible with\n%s", name, order, tree)
		}
	}
}

// TestSelectGreedyPrefersMultiBag mirrors Select's contract: the
// singleton TD (no cache sites) is picked only when nothing better
// exists.
func TestSelectGreedyPrefersMultiBag(t *testing.T) {
	q := cq.New(
		cq.NewAtom("E", "a", "b"), cq.NewAtom("E", "b", "c"), cq.NewAtom("E", "c", "d"))
	tree, _ := SelectGreedy(q, Options{}, GreedyConfig{})
	if tree.N() <= 1 {
		t.Fatalf("4-path selected the singleton TD:\n%s", tree)
	}
	// A clique admits only the singleton: SelectGreedy must fall back.
	q = cq.New(
		cq.NewAtom("E", "x", "y"), cq.NewAtom("E", "y", "z"), cq.NewAtom("E", "x", "z"))
	tree, _ = SelectGreedy(q, Options{}, GreedyConfig{})
	if err := tree.Validate(q); err != nil {
		t.Fatalf("triangle TD invalid: %v", err)
	}
}
