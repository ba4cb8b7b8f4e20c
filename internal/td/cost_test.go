package td

import (
	"reflect"
	"testing"
)

// TestCostTerms pins Cost exactly, term by term: 8^|adhesion| per
// non-root bag, −1 per bag, +0.5 per tree level, −2·(mean adhesion
// skew) per non-root bag when VarSkew is set, and +log2(1+estimate)
// when OrderCost is set.
func TestCostTerms(t *testing.T) {
	cases := []struct {
		name    string
		tree    *TD
		numVars int
		// structural is Σ 8^|adhesion| − bags + 0.5·depth.
		structural float64
		// skewed adds VarSkew(x) = x+1, weighted by −2 per adhesion mean.
		skewed float64
	}{
		// {x1,x2}, {x2,x3,x4}, {x3,x5}, {x4,x6}: three 1-dim adhesions
		// {x2}, {x3}, {x4}, four bags, depth 2 → 24 − 4 + 1.
		{"fig3", fig3TD(), 6, 21, 21 - 2*(2+3+4)},
		// A chain of four edges: three 1-dim adhesions, depth 3.
		{"5-path", MustNew([][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, []int{-1, 0, 1, 2}), 5, 21.5, 21.5 - 2*(2+3+4)},
		// Fig. 11's CS2: two 1-dim caches {2}, {3}.
		{"CS2", MustNew([][]int{{0, 1, 2}, {2, 3}, {3, 4}}, []int{-1, 0, 1}), 5, 14, 14 - 2*(3+4)},
		// Fig. 11's CS3: a 2-dim cache {1,2} and a 1-dim cache {3}.
		{"CS3", MustNew([][]int{{0, 1, 2}, {1, 2, 3}, {3, 4}}, []int{-1, 0, 1}), 5, 70, 70 - 2*(2+3)/2 - 2*4},
		// The singleton: no adhesion, one bag, depth 0.
		{"singleton", Singleton(5), 5, -1, -1},
	}
	skew := func(x int) float64 { return float64(x + 1) }
	for _, c := range cases {
		cfg := CostConfig{}
		if got := Cost(c.tree, cfg); got != c.structural {
			t.Errorf("%s: structural cost = %v, want %v", c.name, got, c.structural)
		}

		cfg = CostConfig{}
		cfg.VarSkew = skew
		if got := Cost(c.tree, cfg); got != c.skewed {
			t.Errorf("%s: cost with VarSkew = %v, want %v", c.name, got, c.skewed)
		}

		// log2(1+7) = 3; the estimate is asked for the compatible order.
		var asked []int
		cfg = CostConfig{}
		cfg.OrderCost = func(order []int) float64 {
			asked = append([]int(nil), order...)
			return 7
		}
		if got := Cost(c.tree, cfg); got != c.structural+3 {
			t.Errorf("%s: cost with OrderCost = %v, want %v", c.name, got, c.structural+3)
		}
		if want := c.tree.CompatibleOrder(c.numVars); !reflect.DeepEqual(asked, want) {
			t.Errorf("%s: OrderCost asked for %v, want %v", c.name, asked, want)
		}

		// A non-positive estimate adds nothing.
		cfg.OrderCost = func([]int) float64 { return 0 }
		if got := Cost(c.tree, cfg); got != c.structural {
			t.Errorf("%s: cost with zero OrderCost = %v, want %v", c.name, got, c.structural)
		}
	}
}
