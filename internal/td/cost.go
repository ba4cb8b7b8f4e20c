package td

import (
	"math"
	"sort"

	"repro/internal/cq"
)

// This file implements the heuristic cost model of §4.3: the TD used for
// caching should have small adhesions (low cache dimension → higher hit
// rates), many bags (more cache sites), low depth, and — when database
// statistics are available — adhesions over skewed attributes (more reuse
// per cached entry). A pluggable order-cost estimator stands in for the
// cost model of Chu et al. [7].

// The fixed weights of the structural and skew terms. Lower cost is
// better.
const (
	// adhesionBase is the per-node penalty base: each non-root bag costs
	// adhesionBase^|adhesion|, so 2-dimensional caches are much more
	// expensive than 1-dimensional ones (cf. Fig. 11's CS3 vs CS2).
	adhesionBase = 8
	// bagBonus is subtracted per bag (more bags → more cache sites).
	bagBonus = 1
	// depthPenalty is added per level of tree depth.
	depthPenalty = 0.5
	// skewBonus scales the reward for adhesions over skewed variables; it
	// multiplies the average skew coefficient of adhesion variables. Used
	// only when a VarSkew function is supplied.
	skewBonus = 2
)

// CostConfig carries the data hooks of the TD cost. The zero value
// scores the structural terms alone.
type CostConfig struct {
	// VarSkew optionally reports a skew coefficient (>=1, higher = more
	// skew) for a variable index, derived from database statistics.
	VarSkew func(varIdx int) float64
	// OrderCost optionally estimates the LFTJ cost of running with the
	// TD's compatible order (the Chu-et-al.-style estimate, normalized by
	// the caller). Added to the cost after a log transform to keep scales
	// comparable.
	OrderCost func(order []int) float64
}

// Cost evaluates t with the configuration's hooks; lower is better. The
// score is a dimensionless weighted sum — the weights exist to make its
// terms comparable — so values are meaningful only relative to other TDs
// of the same query scored with the same hooks.
func Cost(t *TD, cfg CostConfig) float64 {
	cost := 0.0
	for v := range t.Bags {
		if v == t.Root {
			continue
		}
		adh := t.Adhesion(v)
		cost += math.Pow(adhesionBase, float64(len(adh)))
		if cfg.VarSkew != nil && len(adh) > 0 {
			s := 0.0
			for _, x := range adh {
				s += cfg.VarSkew(x)
			}
			cost -= skewBonus * s / float64(len(adh))
		}
	}
	cost -= bagBonus * float64(t.N())
	cost += depthPenalty * float64(t.Depth())
	if cfg.OrderCost != nil {
		oc := cfg.OrderCost(t.CompatibleOrder(t.numVars()))
		if oc > 0 {
			cost += math.Log2(1 + oc)
		}
	}
	return cost
}

// Select enumerates TDs of q (per opts) and returns the one minimizing
// Cost under cfg, together with its strongly compatible variable order.
// Single-bag TDs are returned only when nothing better exists (e.g.
// cliques, where CLFTJ degenerates to LFTJ by design). This is the
// data-dependent planner: when cfg carries VarSkew/OrderCost hooks,
// selection scans column statistics and probes tries — SelectGreedy is
// the O(vars·atoms) alternative that never touches an index.
func Select(q *cq.Query, opts Options, cfg CostConfig) (*TD, []int) {
	cands := Enumerate(q, opts)
	type scored struct {
		t    *TD
		cost float64
	}
	var ss []scored
	for _, t := range cands {
		ss = append(ss, scored{t, Cost(t, cfg)})
	}
	sort.SliceStable(ss, func(i, j int) bool {
		// Prefer multi-bag TDs; the singleton has no cache sites.
		mi, mj := ss[i].t.N() > 1, ss[j].t.N() > 1
		if mi != mj {
			return mi
		}
		return ss[i].cost < ss[j].cost
	})
	best := ss[0].t
	return best, best.CompatibleOrder(len(q.Vars()))
}
