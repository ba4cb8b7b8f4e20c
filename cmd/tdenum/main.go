// Command tdenum enumerates tree decompositions of a query (§4 of the
// paper): it lists the smallest constrained separators of the Gaifman
// graph in increasing size, then the candidate decompositions with their
// adhesion structure and heuristic cost.
//
// Usage:
//
//	tdenum -query 6-cycle [-max-adhesion 3] [-max-seps 10] [-max-tds 12]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/queries"
	"repro/internal/td"
)

func main() {
	queryFlag := flag.String("query", "5-cycle", "query: k-path, k-cycle, k-clique, lollipop-c-t, rand-N-P-SEED")
	maxAdh := flag.Int("max-adhesion", 3, "separator/adhesion size bound")
	maxSeps := flag.Int("max-seps", 10, "how many top-level separators to list/expand")
	maxTDs := flag.Int("max-tds", 12, "how many decompositions to print")
	flag.Parse()

	q, err := queries.Parse(*queryFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdenum:", err)
		os.Exit(1)
	}
	vars := q.Vars()
	fmt.Printf("query: %s\nvariables: %v\n\n", q, vars)

	g := td.Gaifman(q)
	fmt.Printf("smallest constrained separators (by increasing size, bound %d):\n", *maxAdh)
	seps := graph.KSmallestSeparators(g, nil, *maxAdh, *maxSeps)
	if len(seps) == 0 {
		fmt.Println("  none — the Gaifman graph has no separator (clique); only the singleton TD exists")
	}
	for _, s := range seps {
		names := make([]string, len(s))
		for i, x := range s {
			names[i] = vars[x]
		}
		fmt.Printf("  {%s}\n", strings.Join(names, ","))
	}

	fmt.Printf("\ncandidate tree decompositions:\n")
	tds := td.Enumerate(q, td.Options{MaxAdhesion: *maxAdh, MaxSeparators: *maxSeps, MaxTDs: *maxTDs})
	for i, t := range tds {
		fmt.Printf("-- TD %d: bags=%d width=%d maxAdhesion=%d depth=%d cost=%.1f\n",
			i+1, t.N(), t.Width(), t.MaxAdhesion(), t.Depth(), td.Cost(t, td.CostConfig{}))
		fmt.Print(renderTD(t, vars))
	}

	best, orderIdx := td.Select(q, td.Options{MaxAdhesion: *maxAdh, MaxSeparators: *maxSeps, MaxTDs: *maxTDs}, td.CostConfig{})
	order := make([]string, len(orderIdx))
	for d, xi := range orderIdx {
		order[d] = vars[xi]
	}
	fmt.Printf("\nselected TD (strongly compatible order %v):\n%s", order, renderTD(best, vars))
}

func renderTD(t *td.TD, vars []string) string {
	var sb strings.Builder
	var walk func(v, depth int)
	walk = func(v, depth int) {
		sb.WriteString(strings.Repeat("  ", depth+1))
		names := make([]string, len(t.Bags[v]))
		for i, x := range t.Bags[v] {
			names[i] = vars[x]
		}
		fmt.Fprintf(&sb, "{%s}", strings.Join(names, ","))
		if adh := t.Adhesion(v); len(adh) > 0 {
			anames := make([]string, len(adh))
			for i, x := range adh {
				anames[i] = vars[x]
			}
			fmt.Fprintf(&sb, "  adhesion={%s}", strings.Join(anames, ","))
		}
		sb.WriteByte('\n')
		for _, c := range t.Children[v] {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return sb.String()
}
