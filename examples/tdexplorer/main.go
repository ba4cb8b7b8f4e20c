// Tdexplorer: the decomposition side of the paper (§4). For a query, the
// example enumerates the smallest constrained separators of the Gaifman
// graph by increasing size, lists the candidate tree decompositions with
// their adhesion structure and heuristic cost, and then shows how much
// the choice matters by timing CLFTJ under each candidate on the same
// data (the Fig. 11 effect: same treewidth, very different caching).
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	cltj "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/queries"
	"repro/internal/td"
)

func main() {
	q := queries.Lollipop(3, 2)
	vars := q.Vars()
	fmt.Printf("query ({3,2}-lollipop): %s\n\n", q)

	g := td.Gaifman(q)
	fmt.Println("smallest separators of the Gaifman graph (increasing size):")
	for _, s := range graph.KSmallestSeparators(g, nil, 3, 6) {
		names := make([]string, len(s))
		for i, x := range s {
			names[i] = vars[x]
		}
		fmt.Printf("  {%s}\n", strings.Join(names, ","))
	}

	cands := td.Enumerate(q, td.Options{})
	fmt.Printf("\n%d candidate decompositions; timing CLFTJ under each:\n\n", len(cands))

	data := dataset.PreferentialAttachment(400, 4, 99)
	db := data.DB(false)

	fmt.Printf("%-4s  %5s  %6s  %7s  %10s  %10s  %s\n",
		"TD", "bags", "maxAdh", "cost", "count", "time ms", "bags (preorder)")
	for i, tree := range cands {
		order := make([]string, 0, len(vars))
		for _, xi := range tree.CompatibleOrder(len(vars)) {
			order = append(order, vars[xi])
		}
		plan, err := cltj.NewPlan(q, db, cltj.Options{TD: tree, Order: order})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res := plan.Count(core.Policy{})
		dur := time.Since(start)
		fmt.Printf("%-4d  %5d  %6d  %7.1f  %10d  %10.2f  %s\n",
			i+1, tree.N(), tree.MaxAdhesion(), td.Cost(tree, td.CostConfig{}),
			res.Count, float64(dur.Microseconds())/1000, bagsLine(tree, vars))
	}

	best, orderIdx := td.Select(q, td.Options{}, td.CostConfig{})
	order := make([]string, len(orderIdx))
	for d, xi := range orderIdx {
		order[d] = vars[xi]
	}
	fmt.Printf("\ncost model selects: %s with order %v\n", bagsLine(best, vars), order)
}

func bagsLine(t *td.TD, vars []string) string {
	var parts []string
	for _, v := range t.Preorder() {
		names := make([]string, len(t.Bags[v]))
		for i, x := range t.Bags[v] {
			names[i] = vars[x]
		}
		parts = append(parts, "{"+strings.Join(names, ",")+"}")
	}
	return strings.Join(parts, " ")
}
