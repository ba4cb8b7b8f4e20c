package td

import (
	"sort"

	"repro/internal/cq"
	"repro/internal/graph"
)

// This file implements GenericDecompose / RecursiveTD (Fig. 4 of the
// paper): tree decomposition via adhesion (separator) selection, plus the
// enumeration variant of §4.2 that tries the k smallest top-level
// constrained separators.

// SeparatorChooser selects a C-constrained separating set for the induced
// subgraph sub (whose node i is original variable origOf[i]); cLocal are
// the constraint nodes in sub's local ids. It returns local node ids and
// ok=false when no (good) separator exists, which makes RecursiveTD emit
// a singleton bag.
type SeparatorChooser func(sub *graph.Undirected, origOf []int, cLocal []int) ([]int, bool)

// MinSeparatorChooser returns a chooser that picks a minimum-size
// C-constrained separating set bounded by maxAdhesion (<=0: unbounded).
func MinSeparatorChooser(maxAdhesion int) SeparatorChooser {
	return func(sub *graph.Undirected, origOf []int, cLocal []int) ([]int, bool) {
		return graph.MinConstrainedSeparator(sub, cLocal, nil, nil, maxAdhesion)
	}
}

// GenericDecompose builds an ordered TD of q (Fig. 4): it constructs the
// Gaifman graph and runs RecursiveTD with an empty constraint set, using
// the given chooser (MinSeparatorChooser(0) when nil).
func GenericDecompose(q *cq.Query, choose SeparatorChooser) *TD {
	if choose == nil {
		choose = MinSeparatorChooser(0)
	}
	g := Gaifman(q)
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	b := &tdBuilder{g: g, choose: choose}
	root := b.recursiveTD(all, nil)
	return b.finish(root)
}

// tdBuilder accumulates bags while recursing; nodes are appended in the
// order the recursion creates them and re-linked at the end.
type tdBuilder struct {
	g      *graph.Undirected
	choose SeparatorChooser

	bags     [][]int
	children [][]int
}

func (b *tdBuilder) newNode(bag []int) int {
	bb := append([]int(nil), bag...)
	sort.Ints(bb)
	b.bags = append(b.bags, bb)
	b.children = append(b.children, nil)
	return len(b.bags) - 1
}

// recursiveTD implements the subroutine RecursiveTD(g,C) of Fig. 4 on the
// induced subgraph g[nodes], with constraint set c (both in original
// variable ids). It returns the root node id of the constructed subtree;
// the root bag contains all of c.
func (b *tdBuilder) recursiveTD(nodes, c []int) int {
	sub, origOf := b.g.Induced(nodes)
	local := make(map[int]int, len(origOf))
	for i, v := range origOf {
		local[v] = i
	}
	var cLocal []int
	for _, v := range c {
		if i, ok := local[v]; ok {
			cLocal = append(cLocal, i)
		}
	}
	sort.Ints(cLocal)

	sLocal, ok := b.choose(sub, origOf, cLocal)
	if !ok {
		// Line 2-3: no good separator; return the singleton decomposition.
		return b.newNode(nodes)
	}
	s := make([]int, len(sLocal))
	for i, v := range sLocal {
		s[i] = origOf[v]
	}
	sort.Ints(s)

	// U: union of the components of g[nodes]-S that intersect C; if none,
	// an arbitrary (first) component.
	comps := sub.ComponentsAvoiding(sLocal)
	inC := make(map[int]bool, len(cLocal))
	for _, v := range cLocal {
		inC[v] = true
	}
	var u []int
	for _, comp := range comps {
		hit := false
		for _, v := range comp {
			if inC[v] {
				hit = true
				break
			}
		}
		if hit {
			u = append(u, comp...)
		}
	}
	if u == nil && len(comps) > 0 {
		u = append(u, comps[0]...)
	}
	uOrig := make([]int, len(u))
	for i, v := range u {
		uOrig[i] = origOf[v]
	}

	// Line 4: TD of g[S ∪ U] with root containing C ∪ S.
	su := unionSorted(s, uOrig)
	cs := unionSorted(c, s)
	root := b.recursiveTD(su, cs)

	// Lines 5-8: one TD per remaining component, with root containing S,
	// attached as children of root(t0) in component order.
	inSU := make(map[int]bool, len(su))
	for _, v := range su {
		inSU[v] = true
	}
	for _, comp := range comps {
		compOrig := make([]int, 0, len(comp))
		skip := false
		for _, v := range comp {
			o := origOf[v]
			if inSU[o] {
				skip = true
				break
			}
			compOrig = append(compOrig, o)
		}
		if skip || len(compOrig) == 0 {
			continue
		}
		child := b.recursiveTD(unionSorted(s, compOrig), s)
		b.children[root] = append(b.children[root], child)
	}
	return root
}

func (b *tdBuilder) finish(root int) *TD {
	parent := make([]int, len(b.bags))
	for i := range parent {
		parent[i] = -1
	}
	for v, cs := range b.children {
		for _, c := range cs {
			parent[c] = v
		}
	}
	t := MustNew(b.bags, parent)
	return t
}

// Options controls TD enumeration.
type Options struct {
	// MaxAdhesion bounds separator (hence adhesion) size; <=0: unbounded.
	MaxAdhesion int
	// MaxSeparators bounds how many top-level separators to expand
	// (default 8).
	MaxSeparators int
	// MaxTDs bounds the number of decompositions returned (default 16).
	MaxTDs int
}

func (o Options) withDefaults() Options {
	if o.MaxSeparators <= 0 {
		o.MaxSeparators = 8
	}
	if o.MaxTDs <= 0 {
		o.MaxTDs = 16
	}
	if o.MaxAdhesion <= 0 {
		o.MaxAdhesion = 3
	}
	return o
}

// Enumerate generates candidate ordered TDs of q: for each of the k
// smallest top-level constrained separators (§4.2), it runs RecursiveTD
// seeded with that separator and a minimum-separator chooser below, and it
// always includes the singleton TD. Results are deduplicated. The paper's
// rationale: rather than committing to one decomposition, explore a space
// of TDs tailored to small adhesions and select by cost (§4.3).
func Enumerate(q *cq.Query, opts Options) []*TD {
	opts = opts.withDefaults()
	g := Gaifman(q)

	var tds []*TD
	seen := make(map[string]bool)
	add := func(t *TD) {
		t = t.EliminateRedundancy()
		key := t.Canonical()
		if !seen[key] {
			seen[key] = true
			tds = append(tds, t)
		}
	}

	// The singleton decomposition is always a valid fallback (it makes
	// CLFTJ coincide with LFTJ, e.g. for cliques, §5.2.2).
	add(Singleton(g.N()))

	// The min-fill clique tree complements the separator-driven search:
	// it minimizes bag size where the enumeration minimizes adhesions.
	if mf := MinFillDecompose(q); mf.MaxAdhesion() <= opts.MaxAdhesion {
		add(mf)
	}

	// For α-acyclic queries the classical atom join tree (GYO) is a
	// natural candidate: one bag per atom, adhesions = shared variables.
	if jt, ok := AcyclicJoinTree(q); ok && jt.MaxAdhesion() <= opts.MaxAdhesion {
		add(jt.EliminateRedundancy())
	}

	tops := graph.KSmallestSeparators(g, nil, opts.MaxAdhesion, opts.MaxSeparators)
	for _, top := range tops {
		if len(tds) >= opts.MaxTDs {
			break
		}
		first := true
		chooser := func(sub *graph.Undirected, origOf []int, cLocal []int) ([]int, bool) {
			if first {
				first = false
				// Map the chosen top separator into local ids; at the top
				// level origOf is the identity.
				local := make(map[int]int, len(origOf))
				for i, v := range origOf {
					local[v] = i
				}
				s := make([]int, 0, len(top))
				for _, v := range top {
					if i, ok := local[v]; ok {
						s = append(s, i)
					}
				}
				return s, true
			}
			return graph.MinConstrainedSeparator(sub, cLocal, nil, nil, opts.MaxAdhesion)
		}
		add(GenericDecompose(q, chooser))
	}
	return tds
}
