// Package queries builds the query workloads of the paper's experimental
// study (§5.2.2): k-paths, k-cycles, k-cliques, the {c,t}-lollipop of
// Fig. 12, Erdős–Rényi random pattern queries, and the IMDB 4/6-cycles of
// Fig. 14. Pattern variables are named x1, x2, ... and edge atoms range
// over a binary relation (default "E").
package queries

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/cq"
)

// EdgeRel is the default edge relation name used by the builders.
const EdgeRel = "E"

func x(i int) string { return fmt.Sprintf("x%d", i) }

// Path returns the k-path query: k variables joined by k-1 edge atoms
// E(x1,x2), ..., E(x_{k-1},x_k). The paper's "4-path" is Path(4):
// E(a,b), E(b,c), E(c,d).
func Path(k int) *cq.Query {
	if k < 2 {
		panic("queries: path needs at least 2 variables")
	}
	var atoms []cq.Atom
	for i := 1; i < k; i++ {
		atoms = append(atoms, cq.NewAtom(EdgeRel, x(i), x(i+1)))
	}
	return cq.New(atoms...)
}

// Cycle returns the k-cycle query with k variables and k edge atoms, the
// closing atom oriented as in the paper's example (§5.2.2): a 4-cycle is
// E(a,b), E(b,c), E(c,d), E(a,d).
func Cycle(k int) *cq.Query {
	if k < 3 {
		panic("queries: cycle needs at least 3 variables")
	}
	var atoms []cq.Atom
	for i := 1; i < k; i++ {
		atoms = append(atoms, cq.NewAtom(EdgeRel, x(i), x(i+1)))
	}
	atoms = append(atoms, cq.NewAtom(EdgeRel, x(1), x(k)))
	return cq.New(atoms...)
}

// Clique returns the k-clique query: one atom E(xi,xj) per pair i<j.
// Cliques admit no non-trivial decomposition, so CLFTJ coincides with
// LFTJ on them (§5.2.2).
func Clique(k int) *cq.Query {
	if k < 2 {
		panic("queries: clique needs at least 2 variables")
	}
	var atoms []cq.Atom
	for i := 1; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			atoms = append(atoms, cq.NewAtom(EdgeRel, x(i), x(j)))
		}
	}
	return cq.New(atoms...)
}

// Lollipop returns the {c,t}-lollipop query: a c-clique whose last node
// starts a t-edge tail. Lollipop(3,2) is the paper's {3,2}-lollipop
// (Fig. 12): a triangle on x1,x2,x3 with tail x3-x4-x5.
func Lollipop(c, t int) *cq.Query {
	if c < 3 || t < 1 {
		panic("queries: lollipop needs clique size >= 3 and tail length >= 1")
	}
	var atoms []cq.Atom
	for i := 1; i <= c; i++ {
		for j := i + 1; j <= c; j++ {
			atoms = append(atoms, cq.NewAtom(EdgeRel, x(i), x(j)))
		}
	}
	for i := 0; i < t; i++ {
		atoms = append(atoms, cq.NewAtom(EdgeRel, x(c+i), x(c+i+1)))
	}
	return cq.New(atoms...)
}

// Random returns an Erdős–Rényi pattern query over n variables where
// each pair is an edge atom with probability p (§5.2.2's N-rand(P)).
// Only connected patterns are returned: disconnected draws are retried
// with successive sub-seeds, so the result is deterministic in seed.
func Random(n int, p float64, seed int64) *cq.Query {
	if n < 2 {
		panic("queries: random pattern needs at least 2 variables")
	}
	for attempt := int64(0); ; attempt++ {
		rng := rand.New(rand.NewSource(seed + attempt*1_000_003))
		var atoms []cq.Atom
		adj := make([][]bool, n+1)
		for i := range adj {
			adj[i] = make([]bool, n+1)
		}
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Float64() < p {
					atoms = append(atoms, cq.NewAtom(EdgeRel, x(i), x(j)))
					adj[i][j], adj[j][i] = true, true
				}
			}
		}
		if len(atoms) == 0 || !connected(adj, n) {
			continue
		}
		return cq.New(atoms...)
	}
}

func connected(adj [][]bool, n int) bool {
	seen := make([]bool, n+1)
	stack := []int{1}
	seen[1] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 1; v <= n; v++ {
			if adj[u][v] && !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// Names of the IMDB cast relations (Fig. 13/14): both have the schema
// (person_id, movie_id).
const (
	MaleCastRel   = "male_cast"
	FemaleCastRel = "female_cast"
)

// IMDBCycle returns the 2k-variable cycle over the male/female cast
// relations of Fig. 14: persons p1..pk alternate with movies m1..mk
// around a cycle p1-m1-p2-m2-...-pk-mk-p1, odd persons matched through
// male_cast and even persons through female_cast. IMDBCycle(2) and
// IMDBCycle(3) are the paper's 4-cycle and 6-cycle.
func IMDBCycle(k int) *cq.Query {
	if k < 2 {
		panic("queries: IMDB cycle needs at least 2 person/movie pairs")
	}
	rel := func(person int) string {
		if person%2 == 1 {
			return MaleCastRel
		}
		return FemaleCastRel
	}
	p := func(i int) string { return fmt.Sprintf("p%d", i) }
	m := func(i int) string { return fmt.Sprintf("m%d", i) }
	var atoms []cq.Atom
	for i := 1; i <= k; i++ {
		// person i appears in movie i and in movie i-1 (movie k for i=1).
		atoms = append(atoms, cq.NewAtom(rel(i), p(i), m(i)))
		prev := i - 1
		if prev == 0 {
			prev = k
		}
		atoms = append(atoms, cq.NewAtom(rel(i), p(i), m(prev)))
	}
	return cq.New(atoms...)
}

// Parse builds a workload query from its name: k-path, k-cycle,
// k-clique, lollipop-c-t or rand-N-P-SEED (Random(N, P, SEED)).
func Parse(s string) (*cq.Query, error) {
	parts := strings.Split(s, "-")
	switch {
	case len(parts) == 2 && parts[1] == "path":
		k, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad path query %q", s)
		}
		return Path(k), nil
	case len(parts) == 2 && parts[1] == "cycle":
		k, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad cycle query %q", s)
		}
		return Cycle(k), nil
	case len(parts) == 2 && parts[1] == "clique":
		k, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad clique query %q", s)
		}
		return Clique(k), nil
	case len(parts) == 3 && parts[0] == "lollipop":
		c, err1 := strconv.Atoi(parts[1])
		t, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad lollipop query %q", s)
		}
		return Lollipop(c, t), nil
	case len(parts) == 4 && parts[0] == "rand":
		n, err1 := strconv.Atoi(parts[1])
		p, err2 := strconv.ParseFloat(parts[2], 64)
		seed, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("bad random query %q", s)
		}
		return Random(n, p, seed), nil
	}
	return nil, fmt.Errorf("unknown query %q (try 5-cycle, 4-path, lollipop-3-2, rand-5-0.4-7)", s)
}
