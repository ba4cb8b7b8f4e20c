// Package graph provides the small-graph toolkit behind tree decomposition
// generation: undirected graphs over integer nodes, induced subgraphs,
// connected components, minimum vertex cuts (via Dinic max-flow), and the
// paper's enumeration of constrained separating sets by increasing size
// with polynomial delay (§4.2, Lawler–Murty).
//
// Graphs here are query Gaifman graphs: a handful of nodes. The code favors
// clarity and determinism over asymptotic tuning.
package graph

import (
	"fmt"
	"sort"
)

// Undirected is a simple undirected graph on nodes 0..N-1 with no self
// loops and no parallel edges.
type Undirected struct {
	n   int
	adj []map[int]bool
}

// New returns an edgeless graph on n nodes.
func New(n int) *Undirected {
	g := &Undirected{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// N returns the number of nodes.
func (g *Undirected) N() int { return g.n }

// AddEdge inserts the undirected edge {u,v}. Self loops are ignored.
// It panics on out-of-range nodes (a programming error).
func (g *Undirected) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether {u,v} is an edge.
func (g *Undirected) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	return g.adj[u][v]
}

// Neighbors returns the sorted neighbor list of u.
func (g *Undirected) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Edges returns all edges {u,v} with u<v, sorted.
func (g *Undirected) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Induced returns the subgraph of g induced by the given node set (g[U] in
// the paper), together with origOf mapping the subgraph's node i back to
// the original node origOf[i]. Duplicate nodes in the input are collapsed.
func (g *Undirected) Induced(nodes []int) (sub *Undirected, origOf []int) {
	uniq := uniqueSorted(nodes)
	local := make(map[int]int, len(uniq))
	for i, v := range uniq {
		local[v] = i
	}
	sub = New(len(uniq))
	for i, v := range uniq {
		for w := range g.adj[v] {
			if j, ok := local[w]; ok && i < j {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, uniq
}

// Without returns the induced subgraph g - S (on the complement node set)
// with the same node-index mapping convention as Induced.
func (g *Undirected) Without(s []int) (sub *Undirected, origOf []int) {
	drop := make(map[int]bool, len(s))
	for _, v := range s {
		drop[v] = true
	}
	keep := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if !drop[v] {
			keep = append(keep, v)
		}
	}
	return g.Induced(keep)
}

// ComponentsAvoiding returns the connected components of g - removed.
// Nodes in removed appear in no component.
func (g *Undirected) ComponentsAvoiding(removed []int) [][]int {
	drop := make([]bool, g.n)
	for _, v := range removed {
		if v >= 0 && v < g.n {
			drop[v] = true
		}
	}
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] || drop[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for q := 0; q < len(comp); q++ {
			u := comp[q]
			for v := range g.adj[u] {
				if !seen[v] && !drop[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// IsSeparator reports whether removing S disconnects g.
func (g *Undirected) IsSeparator(s []int) bool {
	return len(g.ComponentsAvoiding(s)) >= 2
}

func uniqueSorted(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
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
