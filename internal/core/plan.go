// Package core implements CLFTJ — the paper's contribution: Leapfrog Trie
// Join with flexible caching (Fig. 2). A Plan binds a query, a database,
// an ordered tree decomposition and a strongly compatible variable order;
// executions then run ordinary LFTJ while consulting and filling bounded
// adhesion-keyed caches, so that when no caching takes place the
// algorithm coincides with LFTJ, and any amount of available memory
// translates into memoization (§3).
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/leapfrog"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
)

// Plan is a compiled CLFTJ execution plan. Build once, run many times.
// It is a shape — everything derived from the query, the TD and the
// variable order alone — plus a binding: the leapfrog instance holding
// the trie handles of one database snapshot. The shape is immutable and
// survives data changes; Rebind pairs it with a newer snapshot's tries
// without repeating validation, selection or table compilation.
type Plan struct {
	shape
	inst     *leapfrog.Instance // nil on an Unbound plan
	counters *stats.Counters
}

// shape is the data-independent half of a Plan.
type shape struct {
	// layout holds the per-atom column permutations the binding's tries
	// follow; binding it to a database yields the instance.
	layout *leapfrog.Layout
	tree   *td.TD
	order  []string

	numVars  int
	numNodes int

	// ownerOf[d] is the (effective) bag owning depth d's variable.
	ownerOf []int
	// flags[d] marks depth d's place in the bag owning it.
	flags []depthFlag
	// firstVar[v] / subtreeEnd[v] delimit the contiguous depth interval
	// of node v's subtree: v's owned depths start the interval and the
	// descendants' depths complete it (a consequence of strong
	// compatibility; it is what makes the cache-hit skip sound).
	firstVar   []int
	lastVar    []int
	subtreeEnd []int
	// children lists effective children (bags owning no variable are
	// contracted into their nearest owning ancestor); parent is the
	// inverse (-1 for the root and contracted bags).
	children [][]int
	parent   []int
	// adhesionDepths[v] holds the depths of adhesion(v), ascending; these
	// index the partial assignment to form cache keys.
	adhesionDepths [][]int
	// cacheable[v] marks non-root bags with adhesion width <= MaxKeyDim.
	cacheable []bool
	root      int

	// slotsSeen[v] is the most slots a run has left in bag v's cache
	// table: the room acquireManager gives a table that has less.
	// Feedback and not shape: the one part a run writes, at release, and
	// every Rebind shares.
	slotsSeen []atomic.Int32
}

// NewPlan compiles q against db with the given ordered TD and variable
// order (names). The TD must be valid for q and strongly compatible with
// the order; both are verified. counters may be nil.
func NewPlan(q *cq.Query, db *relation.DB, tree *td.TD, order []string, counters *stats.Counters) (*Plan, error) {
	return NewPlanWith(q, db, tree, order, counters, nil)
}

// NewPlanWith is NewPlan with an optional shared trie source (see
// leapfrog.BuildWith): a long-lived engine passes its trie.Registry so
// plan compilation reuses resident indices instead of rebuilding them
// per query. tries may be nil.
func NewPlanWith(q *cq.Query, db *relation.DB, tree *td.TD, order []string, counters *stats.Counters, tries leapfrog.TrieSource) (*Plan, error) {
	return newPlan(q, db, tree, order, leapfrog.BuildOpts{Counters: counters, Tries: tries})
}

// newPlan compiles the plan with full build options (AutoPlan threads
// the trie-build parallelism knob through here).
func newPlan(q *cq.Query, db *relation.DB, tree *td.TD, order []string, bopts leapfrog.BuildOpts) (*Plan, error) {
	if err := tree.Validate(q); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	qvars := q.Vars()
	qidx := q.VarIndex()
	if len(order) != len(qvars) {
		return nil, fmt.Errorf("core: order has %d variables, query has %d", len(order), len(qvars))
	}
	orderIdx := make([]int, len(order))
	for d, name := range order {
		xi, ok := qidx[name]
		if !ok {
			return nil, fmt.Errorf("core: order variable %q not in query", name)
		}
		orderIdx[d] = xi
	}
	if !tree.StronglyCompatible(orderIdx) {
		return nil, fmt.Errorf("core: tree decomposition is not strongly compatible with order %v", order)
	}
	layout, err := leapfrog.NewLayout(q, order)
	if err != nil {
		return nil, err
	}
	inst, err := layout.Bind(db, bopts)
	if err != nil {
		return nil, err
	}

	p := &Plan{
		shape: shape{
			layout:  layout,
			tree:    tree,
			order:   append([]string(nil), order...),
			numVars: len(order),
		},
		inst:     inst,
		counters: bopts.Counters,
	}
	if err := p.compile(orderIdx); err != nil {
		return nil, err
	}
	return p, nil
}

// Rebind returns a plan of the same shape bound to db: the tries are
// re-acquired (through bopts.Tries where shared — a delta-aware
// registry usually serves a patched index) and accounted to
// bopts.Counters, and nothing else of compilation runs: no TD
// validation, no compatibility check, no table derivation, no order
// selection. The shape's tables are shared with the receiver, which
// may itself be bound, to any snapshot, or Unbound.
func (p *Plan) Rebind(db *relation.DB, bopts leapfrog.BuildOpts) (*Plan, error) {
	inst, err := p.layout.Bind(db, bopts)
	if err != nil {
		return nil, err
	}
	return &Plan{shape: p.shape, inst: inst, counters: bopts.Counters}, nil
}

// Unbound returns the plan's shape without a binding. It holds no trie,
// so a cache can keep it while the snapshot it was bound to is
// reclaimed; it must be Rebound before it executes.
func (p *Plan) Unbound() *Plan { return &Plan{shape: p.shape} }

// SameShape reports whether the two plans came from one compilation —
// one is the other, or a Rebind or Unbound of it.
func (p *Plan) SameShape(o *Plan) bool { return p.layout == o.layout }

// compile derives the owner/adhesion/interval tables from the TD.
func (p *shape) compile(orderIdx []int) error {
	t := p.tree
	n := p.numVars
	owners := t.Owners(n) // per variable index
	depthOf := make([]int, n)
	for d, xi := range orderIdx {
		depthOf[xi] = d
	}

	// Owner per depth (original node ids).
	ownerOf := make([]int, n)
	for d, xi := range orderIdx {
		v := owners[xi]
		if v == -1 {
			return fmt.Errorf("core: variable %q owned by no bag", p.order[d])
		}
		ownerOf[d] = v
	}

	// Contract bags that own no depth: re-parent to the nearest owning
	// ancestor; the root is kept regardless (it owns depth 0 in any valid
	// strongly compatible setup, verified below).
	numNodes := t.N()
	owns := make([]bool, numNodes)
	for _, v := range ownerOf {
		owns[v] = true
	}
	if !owns[t.Root] {
		return fmt.Errorf("core: root bag owns no variable")
	}
	keptParent := make([]int, numNodes)
	for i := range keptParent {
		keptParent[i] = -1
	}
	var children [][]int = make([][]int, numNodes)
	var link func(v, ancestor int)
	link = func(v, ancestor int) {
		next := ancestor
		if owns[v] {
			if ancestor != -1 {
				children[ancestor] = append(children[ancestor], v)
			}
			keptParent[v] = ancestor
			next = v
		}
		for _, c := range t.Children[v] {
			link(c, next)
		}
	}
	link(t.Root, -1)

	firstVar := make([]int, numNodes)
	lastVar := make([]int, numNodes)
	for v := range firstVar {
		firstVar[v], lastVar[v] = -1, -1
	}
	for d := 0; d < n; d++ {
		v := ownerOf[d]
		if firstVar[v] == -1 {
			firstVar[v] = d
		} else if d != lastVar[v]+1 {
			return fmt.Errorf("core: depths owned by bag %d are not contiguous (order not strongly compatible within bags)", v)
		}
		lastVar[v] = d
	}

	subtreeEnd := make([]int, numNodes)
	var span func(v int) int
	span = func(v int) int {
		end := lastVar[v]
		for _, c := range children[v] {
			ce := span(c)
			if ce > end {
				end = ce
			}
		}
		subtreeEnd[v] = end
		return end
	}
	span(t.Root)

	// Verify the subtree interval property: children intervals follow the
	// owner's block contiguously.
	for v := range children {
		if firstVar[v] == -1 {
			continue
		}
		next := lastVar[v] + 1
		for _, c := range children[v] {
			if firstVar[c] != next {
				return fmt.Errorf("core: bag %d subtree interval broken at child %d (got first %d, want %d)",
					v, c, firstVar[c], next)
			}
			next = subtreeEnd[c] + 1
		}
	}

	adhesionDepths := make([][]int, numNodes)
	cacheable := make([]bool, numNodes)
	for v := 0; v < numNodes; v++ {
		if firstVar[v] == -1 || v == t.Root {
			continue
		}
		adh := t.Adhesion(v) // variable indices, sorted
		depths := make([]int, len(adh))
		for i, xi := range adh {
			depths[i] = depthOf[xi]
			if depths[i] >= firstVar[v] {
				return fmt.Errorf("core: adhesion variable of bag %d not assigned before the bag", v)
			}
		}
		sortInts(depths)
		adhesionDepths[v] = depths
		cacheable[v] = len(depths) <= MaxKeyDim
	}

	// A bag's tail starts past the last of its depths a child's adhesion
	// holds. A child's adhesion depths are the bag's or an ancestor's, and
	// an ancestor's lie before the bag's first depth.
	flags := make([]depthFlag, n)
	for v := range children {
		if firstVar[v] == -1 {
			continue
		}
		tail := firstVar[v]
		for _, c := range children[v] {
			for _, d := range adhesionDepths[c] {
				tail = max(tail, d+1)
			}
		}
		flags[firstVar[v]] |= bagFirst
		flags[lastVar[v]] |= bagLast
		if tail <= lastVar[v] {
			flags[tail] |= tailFirst
		}
	}

	p.numNodes = numNodes
	p.ownerOf = ownerOf
	p.flags = flags
	p.firstVar = firstVar
	p.lastVar = lastVar
	p.subtreeEnd = subtreeEnd
	p.children = children
	p.parent = keptParent
	p.adhesionDepths = adhesionDepths
	p.cacheable = cacheable
	p.slotsSeen = make([]atomic.Int32, numNodes)
	p.root = t.Root
	return nil
}

// depthFlag is a set of marks on a depth, relative to the bag owning it.
type depthFlag uint8

const (
	bagFirst depthFlag = 1 << iota // the bag's first depth
	bagLast                        // the bag's last depth
	// tailFirst starts the bag's independent tail: no child's adhesion
	// holds this depth or a later one of the bag. By the running
	// intersection property no later bag's adhesion does either, and no
	// atom joins the tail's variables to a later depth's, so the depths
	// after the bag's last see the tail only through the count of its
	// bindings (see the count executor).
	tailFirst
)

// is reports whether depth d carries mark f.
func (p *shape) is(d int, f depthFlag) bool { return p.flags[d]&f != 0 }

// Instance exposes the underlying leapfrog instance (nil on an Unbound
// plan).
func (p *Plan) Instance() *leapfrog.Instance { return p.inst }

// Embedded returns the shared-registry indices the plan's binding
// draws on (see leapfrog.Instance.Embedded) — what a plan cache tracks
// to unbind precisely on registry evictions. An Unbound plan embeds none.
func (p *Plan) Embedded() []leapfrog.SourceEntry {
	if p.inst == nil {
		return nil
	}
	return p.inst.Embedded()
}

// TD returns the plan's tree decomposition.
func (p *Plan) TD() *td.TD { return p.tree }

// Order returns the variable order (names by depth).
func (p *Plan) Order() []string { return p.order }

// Counters returns the accounting sink (possibly nil).
func (p *Plan) Counters() *stats.Counters { return p.counters }

// WithCounters returns a shallow copy of the plan whose executions
// account into c (which may be nil to disable accounting). The compiled
// tables and trie indices are shared — they are immutable after
// compilation — so the copy is cheap and the original and copy may
// execute concurrently. This is how a long-lived engine runs one cached
// plan for many requests, each with private accounting: every execution
// entry point reads the counters sink from the plan it is invoked on,
// never from shared state.
func (p *Plan) WithCounters(c *stats.Counters) *Plan {
	cp := *p
	cp.counters = c
	return &cp
}

// CacheDims returns the adhesion widths of the cacheable bags (the cache
// dimensions, cf. Fig. 11's cache structures).
func (p *Plan) CacheDims() []int {
	var dims []int
	for v := 0; v < p.numNodes; v++ {
		if p.cacheable[v] {
			dims = append(dims, len(p.adhesionDepths[v]))
		}
	}
	return dims
}

// keyAt writes the cache key of bag v under the current assignment into
// the adhesion-width prefix of k.
func (p *Plan) keyAt(v int, mu []int64, k *Key) {
	for i, d := range p.adhesionDepths[v] {
		k[i] = mu[d]
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
