// Package td implements ordered tree decompositions of full conjunctive
// queries (§2.3 of the paper): bags, adhesions, owners, preorder,
// compatibility and strong compatibility with variable orderings,
// validation against the query, the GenericDecompose algorithm (Fig. 4)
// over enumerated constrained separators, TD enumeration, and two
// planners that pick the decomposition and variable order CLFTJ caches
// over: the data-dependent heuristic cost model (§4.3, Select) and the
// stats-free greedy orderer (SelectGreedy). The normative description
// of both — cost-model terms and ranking rules — is docs/PLANNING.md.
//
// Throughout the package, variables are identified by their index in
// query.Vars() (the canonical first-appearance order). Every planner
// returns an order that is strongly compatible with its decomposition
// (StronglyCompatible): a preorder walk of the tree emitting each bag's
// unseen variables consecutively — the invariant the adhesion-keyed
// caches require.
package td

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/graph"
)

// TD is a rooted, ordered tree decomposition. Node 0..len(Bags)-1; the
// children slices define the left-to-right order that fixes the preorder.
// Bags hold sorted variable indices.
type TD struct {
	// Bags maps each tree node to its sorted set of variable indices.
	Bags [][]int
	// Parent maps each node to its parent; Parent[Root] == -1.
	Parent []int
	// Children lists each node's children in order.
	Children [][]int
	// Root is the root node.
	Root int
}

// New assembles a TD from bags and parent pointers; children order follows
// ascending node id. Bags are copied and sorted.
func New(bags [][]int, parent []int) (*TD, error) {
	n := len(bags)
	if len(parent) != n {
		return nil, fmt.Errorf("td: %d bags but %d parent entries", n, len(parent))
	}
	t := &TD{
		Bags:     make([][]int, n),
		Parent:   append([]int(nil), parent...),
		Children: make([][]int, n),
		Root:     -1,
	}
	for i, b := range bags {
		bb := append([]int(nil), b...)
		sort.Ints(bb)
		t.Bags[i] = bb
	}
	for v, p := range parent {
		if p == -1 {
			if t.Root != -1 {
				return nil, fmt.Errorf("td: multiple roots (%d and %d)", t.Root, v)
			}
			t.Root = v
			continue
		}
		if p < 0 || p >= n {
			return nil, fmt.Errorf("td: node %d has out-of-range parent %d", v, p)
		}
		t.Children[p] = append(t.Children[p], v)
	}
	if t.Root == -1 {
		return nil, fmt.Errorf("td: no root")
	}
	// Verify the parent pointers form a tree reaching all nodes.
	if len(t.Preorder()) != n {
		return nil, fmt.Errorf("td: parent pointers do not form a single tree")
	}
	return t, nil
}

// MustNew is New but panics on error; for tests and fixed experiment TDs.
func MustNew(bags [][]int, parent []int) *TD {
	t, err := New(bags, parent)
	if err != nil {
		panic(err)
	}
	return t
}

// Singleton returns the one-bag TD over numVars variables. It has no
// adhesion, so no cache site: CLFTJ over it is LFTJ (§3.2), and it is
// strongly compatible with every variable order.
func Singleton(numVars int) *TD {
	all := make([]int, numVars)
	for i := range all {
		all[i] = i
	}
	return MustNew([][]int{all}, []int{-1})
}

// N returns the number of bags.
func (t *TD) N() int { return len(t.Bags) }

// numVars is the number of variables t covers: one more than the largest
// variable index in any bag (bags are sorted). A TD of q covers every
// variable of q, so this is len(q.Vars()).
func (t *TD) numVars() int {
	n := 0
	for _, b := range t.Bags {
		if len(b) > 0 {
			n = max(n, b[len(b)-1]+1)
		}
	}
	return n
}

// Preorder returns the nodes in preorder (root first, children
// left-to-right, each subtree fully before the next sibling).
func (t *TD) Preorder() []int {
	out := make([]int, 0, t.N())
	var walk func(v int)
	walk = func(v int) {
		out = append(out, v)
		for _, c := range t.Children[v] {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// Adhesion returns the parent adhesion χ(v) ∩ χ(parent(v)) of a non-root
// node, sorted; the root's adhesion is empty.
func (t *TD) Adhesion(v int) []int {
	if v == t.Root {
		return nil
	}
	return intersectSorted(t.Bags[v], t.Bags[t.Parent[v]])
}

// Owners returns, for every variable index, the owner bag: the first bag
// in preorder containing the variable; -1 for variables in no bag.
func (t *TD) Owners(numVars int) []int {
	owner := make([]int, numVars)
	for i := range owner {
		owner[i] = -1
	}
	for _, v := range t.Preorder() {
		for _, x := range t.Bags[v] {
			if x >= 0 && x < numVars && owner[x] == -1 {
				owner[x] = v
			}
		}
	}
	return owner
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *TD) Depth() int {
	var depth func(v int) int
	depth = func(v int) int {
		d := 0
		for _, c := range t.Children[v] {
			if cd := depth(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return depth(t.Root)
}

// Width returns max bag size - 1, the classical treewidth of the TD.
func (t *TD) Width() int {
	w := 0
	for _, b := range t.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// MaxAdhesion returns the largest adhesion cardinality (0 for a single
// bag). Adhesion sizes are the cache dimensions in CLFTJ.
func (t *TD) MaxAdhesion() int {
	m := 0
	for v := range t.Bags {
		if v == t.Root {
			continue
		}
		if a := len(t.Adhesion(v)); a > m {
			m = a
		}
	}
	return m
}

// Validate checks that t is a tree decomposition of q (per §2.3): every
// atom's variables are contained in some bag, and for every variable the
// bags containing it induce a connected subtree.
func (t *TD) Validate(q *cq.Query) error {
	idx := q.VarIndex()
	numVars := len(idx)
	for _, b := range t.Bags {
		for _, x := range b {
			if x < 0 || x >= numVars {
				return fmt.Errorf("td: bag variable index %d out of range [0,%d)", x, numVars)
			}
		}
	}
	for ai, a := range q.Atoms {
		vars := a.Vars()
		covered := false
		for _, b := range t.Bags {
			if coversAll(b, vars, idx) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("td: atom %d (%s) covered by no bag", ai, a)
		}
	}
	for x := 0; x < numVars; x++ {
		var with []int
		for v, b := range t.Bags {
			if containsSorted(b, x) {
				with = append(with, v)
			}
		}
		if len(with) == 0 {
			return fmt.Errorf("td: variable %d appears in no bag", x)
		}
		if !t.connectedNodes(with) {
			return fmt.Errorf("td: bags containing variable %d are not connected", x)
		}
	}
	return nil
}

// connectedNodes reports whether the given tree nodes induce a connected
// subtree.
func (t *TD) connectedNodes(nodes []int) bool {
	in := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		in[v] = true
	}
	seen := map[int]bool{nodes[0]: true}
	queue := []int{nodes[0]}
	for q := 0; q < len(queue); q++ {
		v := queue[q]
		var nbrs []int
		if p := t.Parent[v]; p != -1 {
			nbrs = append(nbrs, p)
		}
		nbrs = append(nbrs, t.Children[v]...)
		for _, w := range nbrs {
			if in[w] && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(seen) == len(nodes)
}

// CompatibleOrder returns a variable ordering (as variable indices) that t
// is strongly compatible with: bags in preorder contribute their owned
// variables; within a bag, adhesion variables would already be owned by
// ancestors, and the remaining variables keep ascending index order.
// Variables appearing in no bag (there are none for valid TDs) would be
// appended at the end.
func (t *TD) CompatibleOrder(numVars int) []int {
	var order []int
	seen := make([]bool, numVars)
	for _, v := range t.Preorder() {
		for _, x := range t.Bags[v] {
			if x < numVars && !seen[x] {
				seen[x] = true
				order = append(order, x)
			}
		}
	}
	for x := 0; x < numVars; x++ {
		if !seen[x] {
			order = append(order, x)
		}
	}
	return order
}

// StronglyCompatible reports whether t is strongly compatible with the
// given variable ordering (a permutation of 0..numVars-1): whenever
// owner(x_i) precedes owner(x_j) in preorder, i < j (§2.3).
func (t *TD) StronglyCompatible(order []int) bool {
	numVars := len(order)
	owner := t.Owners(numVars)
	prePos := make([]int, t.N())
	for i, v := range t.Preorder() {
		prePos[v] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			oi, oj := owner[order[i]], owner[order[j]]
			if oi == -1 || oj == -1 {
				continue
			}
			if prePos[oj] < prePos[oi] {
				return false
			}
		}
	}
	return true
}

// EliminateRedundancy removes bags contained in an adjacent bag,
// reattaching their children (§4.1 closing remark). The result is a valid
// TD of the same query with no bag contained in a neighbor.
func (t *TD) EliminateRedundancy() *TD {
	bags := make([][]int, len(t.Bags))
	for i, b := range t.Bags {
		bags[i] = append([]int(nil), b...)
	}
	parent := append([]int(nil), t.Parent...)
	alive := make([]bool, len(bags))
	for i := range alive {
		alive[i] = true
	}
	changed := true
	for changed {
		changed = false
		// Recompute children each pass.
		children := make([][]int, len(bags))
		root := -1
		for v, p := range parent {
			if !alive[v] {
				continue
			}
			if p == -1 {
				root = v
			} else {
				children[p] = append(children[p], v)
			}
		}
		for v := range bags {
			if !alive[v] {
				continue
			}
			p := parent[v]
			if p != -1 && subsetSorted(bags[v], bags[p]) {
				// Child contained in parent: splice out v.
				for _, c := range children[v] {
					parent[c] = p
				}
				alive[v] = false
				changed = true
				break
			}
			if p != -1 && subsetSorted(bags[p], bags[v]) && v != root {
				// Parent contained in child: promote v into p's place by
				// replacing p's bag with v's and splicing out v.
				bags[p] = append([]int(nil), bags[v]...)
				for _, c := range children[v] {
					parent[c] = p
				}
				alive[v] = false
				changed = true
				break
			}
		}
	}
	// Compact alive nodes.
	remap := make([]int, len(bags))
	var newBags [][]int
	for v := range bags {
		if alive[v] {
			remap[v] = len(newBags)
			newBags = append(newBags, bags[v])
		} else {
			remap[v] = -1
		}
	}
	newParent := make([]int, len(newBags))
	for v := range bags {
		if !alive[v] {
			continue
		}
		p := parent[v]
		for p != -1 && !alive[p] {
			p = parent[p]
		}
		if p == -1 {
			newParent[remap[v]] = -1
		} else {
			newParent[remap[v]] = remap[p]
		}
	}
	out, err := New(newBags, newParent)
	if err != nil {
		// Should be impossible; fall back to the original.
		return t
	}
	return out
}

// String renders the TD as nested bags for debugging and tool output.
func (t *TD) String() string {
	var sb strings.Builder
	var walk func(v, depth int)
	walk = func(v, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&sb, "%v", t.Bags[v])
		if v != t.Root {
			fmt.Fprintf(&sb, " adh=%v", t.Adhesion(v))
		}
		sb.WriteByte('\n')
		for _, c := range t.Children[v] {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return sb.String()
}

// Canonical returns a canonical string key for deduplicating TDs with the
// same shape and bags.
func (t *TD) Canonical() string {
	var sb strings.Builder
	var walk func(v int)
	walk = func(v int) {
		fmt.Fprintf(&sb, "(%v", t.Bags[v])
		for _, c := range t.Children[v] {
			walk(c)
		}
		sb.WriteByte(')')
	}
	walk(t.Root)
	return sb.String()
}

// Gaifman builds the Gaifman graph of q as a graph.Undirected over
// variable indices.
func Gaifman(q *cq.Query) *graph.Undirected {
	g := graph.New(len(q.Vars()))
	for _, e := range q.GaifmanEdges() {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

func subsetSorted(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			return false
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return i == len(a)
}

func containsSorted(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

func coversAll(bag []int, vars []string, idx map[string]int) bool {
	for _, v := range vars {
		if !containsSorted(bag, idx[v]) {
			return false
		}
	}
	return true
}
