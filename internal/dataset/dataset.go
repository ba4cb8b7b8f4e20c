// Package dataset generates and loads the experimental workloads. The
// paper evaluates on SNAP graphs (wiki-Vote, p2p-Gnutella04, ca-GrQc,
// ego-Facebook, ego-Twitter) and an IMDB cast table; neither ships with
// this repository, so dataset substitutes deterministic synthetic
// generators matched to each workload's *shape* — degree skew, clustering
// and density — which are the properties the paper's analysis attributes
// CLFTJ's behaviour to (skewed data caches well; balanced data does
// not). Sizes are scaled to laptop benchmarks. See snap.go and imdb.go
// for the per-dataset mapping.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/relation"
)

// Graph is a directed graph given as an edge list over nodes 0..N-1.
type Graph struct {
	// Name labels the graph in experiment tables.
	Name string
	// N is the number of nodes.
	N int
	// Edges are directed (from, to) pairs, deduplicated, no self loops.
	Edges [][2]int64
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// EdgeRelation materializes the edge list as a binary relation with the
// given name. With symmetric set, each edge is added in both directions
// (an undirected reading of the graph).
func (g *Graph) EdgeRelation(name string, symmetric bool) *relation.Relation {
	b := relation.NewBuilder(name, 2)
	for _, e := range g.Edges {
		b.Add(e[0], e[1])
		if symmetric {
			b.Add(e[1], e[0])
		}
	}
	return b.Build()
}

// DB wraps the graph as a single-relation database under the standard
// edge relation name "E".
func (g *Graph) DB(symmetric bool) *relation.DB {
	return relation.NewDB(g.EdgeRelation("E", symmetric))
}

// dedupe sorts and deduplicates the edge list, dropping self loops.
func dedupe(edges [][2]int64) [][2]int64 {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	out := edges[:0]
	for i, e := range edges {
		if e[0] == e[1] {
			continue
		}
		if i > 0 && e == edges[i-1] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// ErdosRenyi generates a directed G(n,p) graph: each ordered pair (u,v),
// u != v, is an edge with probability p. Deterministic in seed.
func ErdosRenyi(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int64
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				edges = append(edges, [2]int64{int64(u), int64(v)})
			}
		}
	}
	return &Graph{Name: fmt.Sprintf("er-%d-%g", n, p), N: n, Edges: dedupe(edges)}
}

// PreferentialAttachment generates a Barabási–Albert-style graph: nodes
// arrive one at a time and attach m edges to existing nodes chosen
// proportionally to degree, yielding the heavy-tailed degree distribution
// characteristic of social graphs (wiki-Vote, ego-Twitter). Each edge's
// direction is a coin flip, so the directed graph contains cycles (a
// newest-to-oldest orientation would be acyclic and make every cycle
// query trivially empty). Deterministic in seed.
func PreferentialAttachment(n, m int, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int64
	// targets repeats each node once per incident edge endpoint, so
	// sampling uniformly from it is degree-proportional sampling.
	targets := []int64{0}
	for u := 1; u < n; u++ {
		k := m
		if u < m {
			k = u
		}
		chosen := make(map[int64]bool, k)
		for len(chosen) < k {
			t := targets[rng.Intn(len(targets))]
			if t != int64(u) {
				chosen[t] = true
			}
		}
		// Materialize and sort first: map iteration order is randomized
		// and both the edge list and the degree pool must be
		// deterministic in the seed.
		picked := make([]int64, 0, len(chosen))
		for t := range chosen {
			picked = append(picked, t)
		}
		sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
		for _, t := range picked {
			if rng.Intn(2) == 0 {
				edges = append(edges, [2]int64{int64(u), t})
			} else {
				edges = append(edges, [2]int64{t, int64(u)})
			}
			targets = append(targets, t, int64(u))
		}
	}
	return &Graph{Name: fmt.Sprintf("pa-%d-%d", n, m), N: n, Edges: dedupe(edges)}
}

// TriadicPA generates a preferential-attachment graph with triadic
// closure: each arriving node attaches m edges; the first target is
// degree-sampled, and each further target is, with probability pTriad, a
// random neighbor of an already-chosen target (closing a triangle) and
// degree-sampled otherwise. The combination of heavy-tailed degrees and
// high clustering matches collaboration networks (ca-GrQc) and dense
// social circles (ego-Facebook). Edge directions are coin flips;
// deterministic in seed.
func TriadicPA(n, m int, pTriad float64, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int64
	neighbors := make([][]int64, n)
	targets := []int64{0}
	for u := 1; u < n; u++ {
		k := m
		if u < m {
			k = u
		}
		chosen := make(map[int64]bool, k)
		var order []int64
		pick := func(t int64) {
			if t != int64(u) && !chosen[t] {
				chosen[t] = true
				order = append(order, t)
			}
		}
		pick(targets[rng.Intn(len(targets))])
		for attempts := 0; len(order) < k && attempts < 20*k; attempts++ {
			if len(order) > 0 && rng.Float64() < pTriad {
				base := order[rng.Intn(len(order))]
				if nbrs := neighbors[base]; len(nbrs) > 0 {
					pick(nbrs[rng.Intn(len(nbrs))])
					continue
				}
			}
			pick(targets[rng.Intn(len(targets))])
		}
		for _, t := range order {
			if rng.Intn(2) == 0 {
				edges = append(edges, [2]int64{int64(u), t})
			} else {
				edges = append(edges, [2]int64{t, int64(u)})
			}
			neighbors[u] = append(neighbors[u], t)
			neighbors[t] = append(neighbors[t], int64(u))
			targets = append(targets, t, int64(u))
		}
	}
	return &Graph{Name: fmt.Sprintf("tpa-%d-%d-%g", n, m, pTriad), N: n, Edges: dedupe(edges)}
}

// CliqueUnion generates a collaboration network as a union of cliques:
// nPapers "papers" each draw 2..maxAuthors authors (paper sizes and
// author popularity Zipf-distributed) and contribute a clique among
// them. Overlapping cliques create hub authors and the very high
// co-neighbor multiplicity characteristic of co-authorship graphs
// (ca-GrQc) — the property that makes adhesion caches highly reusable.
// Edge directions are coin flips; deterministic in seed.
func CliqueUnion(nAuthors, nPapers, maxAuthors int, skew float64, seed int64) *Graph {
	if maxAuthors < 2 {
		maxAuthors = 2
	}
	rng := rand.New(rand.NewSource(seed))
	authorZipf := rand.NewZipf(rng, skew, 1, uint64(nAuthors-1))
	sizeZipf := rand.NewZipf(rng, 1.5, 1, uint64(maxAuthors-2))
	var edges [][2]int64
	for p := 0; p < nPapers; p++ {
		k := 2 + int(sizeZipf.Uint64())
		authors := make(map[int64]bool, k)
		for attempts := 0; len(authors) < k && attempts < 10*k; attempts++ {
			authors[int64(authorZipf.Uint64())] = true
		}
		list := make([]int64, 0, len(authors))
		for a := range authors {
			list = append(list, a)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, [2]int64{list[i], list[j]})
				} else {
					edges = append(edges, [2]int64{list[j], list[i]})
				}
			}
		}
	}
	return &Graph{Name: fmt.Sprintf("cliq-%d-%d", nAuthors, nPapers), N: nAuthors, Edges: dedupe(edges)}
}

// Community generates a planted-partition graph: n nodes split into k
// equal communities, with directed edge probability pIn inside a
// community and pOut across, modeling the clustered collaboration
// networks (ca-GrQc, ego-Facebook). Deterministic in seed.
func Community(n, k int, pIn, pOut float64, seed int64) *Graph {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int64
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			p := pOut
			if u%k == v%k {
				p = pIn
			}
			if rng.Float64() < p {
				edges = append(edges, [2]int64{int64(u), int64(v)})
			}
		}
	}
	return &Graph{Name: fmt.Sprintf("comm-%d-%d", n, k), N: n, Edges: dedupe(edges)}
}

// Load parses a SNAP-style edge list: one "from<ws>to" pair per line,
// '#' comment lines skipped. Node ids may be any non-negative int64
// below math.MaxInt64; N is one past the largest id seen.
func Load(name string, r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges [][2]int64
	var maxID int64 = -1
	line := 0
	for sc.Scan() {
		line++
		f0, rest := relation.CutField(sc.Bytes())
		if len(f0) == 0 || f0[0] == '#' {
			continue
		}
		f1, _ := relation.CutField(rest)
		if len(f1) == 0 {
			return nil, fmt.Errorf("dataset %s: line %d: want 2 fields, got 1", name, line)
		}
		u, err := strconv.ParseInt(string(f0), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: line %d: %v", name, line, err)
		}
		v, err := strconv.ParseInt(string(f1), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: line %d: %v", name, line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("dataset %s: line %d: negative node id", name, line)
		}
		if u == math.MaxInt64 || v == math.MaxInt64 {
			// Nodes are 0..N-1, and N must fit an int64.
			return nil, fmt.Errorf("dataset %s: line %d: node id %d out of range", name, line, int64(math.MaxInt64))
		}
		edges = append(edges, [2]int64{u, v})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &Graph{Name: name, N: int(maxID + 1), Edges: dedupe(edges)}, nil
}
