// Package leapfrog implements Veldhuizen's Leapfrog Trie Join: the unary
// leapfrog k-way sorted intersection, the recursive trie join TJCount of
// Fig. 1, and full query evaluation. The Instance type — a query bound to
// a database under a fixed variable ordering, with one trie per atom — is
// also the substrate CLFTJ (package core), GenericJoin and YTD build on.
//
// The package does not execute LFTJ for the system. LFTJ is CLFTJ with
// nothing cached (§3.2), so every LFTJ run that is timed, served or
// reported is core's one-bag plan under a disabled cache policy, on
// core's driver, which alone decides how a run is sharded. What stays
// here is what that driver is made of — the Runner, whose OpenDepth,
// OpenLeaf and CloseDepth hand out one trie.Leapfrog per depth, and the
// Canceler — plus the scalar reference: the Frog, and Count and Eval on
// it — sequential, uncancellable, one Key/Next step of Iterator calls
// per match, which every charge test compares the kernel against and
// YTD's bag construction uses. How a trie is built, chunking included,
// is package trie's decision.
package leapfrog

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/cq"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/trie"
)

// AtomLeg describes one atom's participation in the join: its trie
// (columns permuted into global-order-sorted variable order) and the
// global order positions of its variables, ascending.
type AtomLeg struct {
	// Trie has one level per distinct variable of the atom, sorted by
	// the global order: the index of the relation itself, entered under
	// the atom's constants (trie.Under) when it has any, or a private
	// index of the selected relation when a variable repeats.
	Trie *trie.Trie
	// VarPos[i] is the global order position of trie level i.
	VarPos []int
}

// Instance is a full CQ bound to a database under a variable ordering,
// ready to be counted or evaluated any number of times.
type Instance struct {
	query    *cq.Query
	order    []string
	atoms    []AtomLeg
	legsAt   [][]int // legsAt[d] = indices of atoms participating at depth d
	levelsAt [][]int // levelsAt[d][j] = the level of atom legsAt[d][j]'s trie at depth d
	empty    bool    // some atom matches no tuple: result is ∅
	counters *stats.Counters
	embedded []SourceEntry // shared-source indices this instance draws on

	// pool recycles Runners across executions (see Runner.Release):
	// iterators, frogs and the assignment buffer are reused, so a warm
	// instance counts and evaluates with zero allocations per run.
	pool sync.Pool
}

// SourceEntry identifies one shared-source index an instance embeds:
// the base relation (by identity) and the column-permutation signature
// (trie.PermSig) its levels follow. A resident engine's plan cache
// tracks these so a registry eviction invalidates exactly the plans
// pinning the evicted index.
type SourceEntry struct {
	Rel  *relation.Relation
	Perm string
}

// TrieSource supplies shared, immutable tries over permuted base
// relations — typically a trie.Registry held by a long-lived engine, so
// that repeated queries reuse indices instead of rebuilding them. The
// source is consulted for every atom without a repeated variable: the
// index it is asked for is the relation under a column order, which
// depends on nothing query-specific — an atom's constants come first in
// that order and are bound afterwards as a prefix of the shared index
// (trie.Under). Implementations must be safe for concurrent use and
// must return tries with no default counter sink (per-run iterators
// attach their own accounting).
//
// Relation versions thread through this interface by pointer identity:
// every relation.Store delta installs a fresh immutable *Relation, so
// the rel argument names one exact (relation, version) pair and a
// source can never serve a stale index for updated data. A delta-aware
// source (trie.Registry with Observed lineage) may satisfy the request
// with a copy-on-write patch of the previous version's index; the
// returned trie then accounts the derivation as TriePatches rather
// than TrieBuilds, and behaves identically under iteration.
type TrieSource interface {
	Trie(rel *relation.Relation, perm []int, c *stats.Counters) (*trie.Trie, error)
}

// BuildOpts bundles the optional knobs of instance compilation.
type BuildOpts struct {
	// Counters receives compile-time accounting (may be nil).
	Counters *stats.Counters
	// Tries is an optional shared trie source (see BuildWith).
	Tries TrieSource
}

// Build compiles the query against db under the given variable order
// (names; must be a permutation of q.Vars()). counters may be nil.
//
// Atoms with constants or repeated variables are legal, and every trie
// level still corresponds to a distinct variable: constants are bound
// as a prefix of the relation's index, a repeated variable is selected
// and projected away first. Atoms left with no variables act as boolean
// guards (a guard matching no tuple makes the result empty).
func Build(q *cq.Query, db *relation.DB, order []string, counters *stats.Counters) (*Instance, error) {
	return buildOptions(q, db, order, BuildOpts{Counters: counters})
}

// BuildWith is Build with an optional trie source: when tries is non-nil,
// atoms draw their trie from the source (one shared build per (relation,
// column order), constants or not) instead of constructing a private
// one; only atoms with a repeated variable still build privately, since
// no column order expresses their selection. tries may be nil, which is
// exactly Build.
func BuildWith(q *cq.Query, db *relation.DB, order []string, counters *stats.Counters, tries TrieSource) (*Instance, error) {
	return buildOptions(q, db, order, BuildOpts{Counters: counters, Tries: tries})
}

// buildOptions is the full-control compilation entry point: BuildWith
// plus the trie-build parallelism knob. It is NewLayout followed by
// Layout.Bind.
func buildOptions(q *cq.Query, db *relation.DB, order []string, opts BuildOpts) (*Instance, error) {
	l, err := NewLayout(q, order)
	if err != nil {
		return nil, err
	}
	return l.Bind(db, opts)
}

// Layout is the data-independent half of an Instance: the query, the
// variable order, and per atom how its columns map onto trie levels.
// It is derived from the query text and the order alone, so one Layout
// binds to any number of database snapshots (Bind); a resident engine
// keeps it across updates and only re-acquires the tries. Immutable
// after NewLayout.
type Layout struct {
	query    *cq.Query
	order    []string
	atoms    []atomLayout // one per query atom, in atom order
	legsAt   [][]int
	levelsAt [][]int
}

// atomLayout is one atom's share of a Layout: the selection its
// constants and repeated variables impose, the projection onto one
// column per distinct variable, and the permutation of those columns
// into global-order-sorted trie levels.
type atomLayout struct {
	consts map[int]int64 // column -> required constant
	equal  [][]int       // column classes of repeated variables
	cols   []int         // first-occurrence column of each distinct variable
	vars   []string      // distinct variables, in column order
	// prefix holds the constants in column order. Without a repeated
	// variable perm permutes the relation's own columns — the constant
	// columns first, in column order, then the variable columns by
	// global order position — so the atom's trie is the relation's index
	// under perm, entered under prefix. With one, no column order
	// expresses the selection: perm then sorts the columns of the
	// derived relation (one per distinct variable). varPos holds the
	// variables' order positions ascending (trie level i binds order
	// position varPos[i]). perm and varPos are nil for a constant-only
	// guard atom.
	prefix  []int64
	perm    []int
	varPos  []int
	permSig string // trie.PermSig(perm)
}

func layoutAtom(atom cq.Atom) atomLayout {
	a := atomLayout{
		cols: make([]int, 0, len(atom.Args)),
		vars: make([]string, 0, len(atom.Args)),
	}
	// Atoms are a handful of arguments wide: linear scans, and nothing
	// allocated for constants or repeats an atom does not have.
	var classes [][]int // by variable; nil until the variable repeats
	for col, t := range atom.Args {
		if !t.IsVar() {
			if a.consts == nil {
				a.consts = make(map[int]int64)
			}
			a.consts[col] = t.Const
			a.prefix = append(a.prefix, t.Const)
			continue
		}
		i := slices.Index(a.vars, t.Var)
		if i < 0 {
			a.vars = append(a.vars, t.Var)
			a.cols = append(a.cols, col)
			continue
		}
		if classes == nil {
			classes = make([][]int, len(atom.Args))
		}
		if classes[i] == nil {
			classes[i] = []int{a.cols[i]}
		}
		classes[i] = append(classes[i], col)
	}
	for _, cls := range classes {
		if cls != nil {
			a.equal = append(a.equal, cls)
		}
	}
	return a
}

// derive applies the atom's selection and projection to rel: what the
// engines that join relations rather than tries consume
// (DeriveAtomRelation), and how Bind indexes an atom with a repeated
// variable. An atom of all-distinct variables and no constants derives
// rel itself.
func (a *atomLayout) derive(rel *relation.Relation) (*relation.Relation, error) {
	if len(a.consts) == 0 && len(a.equal) == 0 {
		if len(a.cols) == rel.Arity() {
			return rel, nil
		}
		return rel.Project(a.cols)
	}
	selected, err := rel.Select(a.consts, a.equal)
	if err != nil {
		return nil, err
	}
	return selected.Project(a.cols)
}

// NewLayout compiles the data-independent half of buildOptions: order
// must be a permutation of q.Vars().
func NewLayout(q *cq.Query, order []string) (*Layout, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	qvars := q.Vars()
	if len(order) != len(qvars) {
		return nil, fmt.Errorf("leapfrog: order has %d variables, query has %d", len(order), len(qvars))
	}
	pos := make(map[string]int, len(order))
	for i, v := range order {
		if _, dup := pos[v]; dup {
			return nil, fmt.Errorf("leapfrog: duplicate variable %q in order", v)
		}
		pos[v] = i
	}
	for _, v := range qvars {
		if _, ok := pos[v]; !ok {
			return nil, fmt.Errorf("leapfrog: order is missing query variable %q", v)
		}
	}

	l := &Layout{
		query:    q,
		order:    append([]string(nil), order...),
		atoms:    make([]atomLayout, len(q.Atoms)),
		legsAt:   make([][]int, len(order)),
		levelsAt: make([][]int, len(order)),
	}
	legs := 0
	for i, atom := range q.Atoms {
		a := layoutAtom(atom)
		if len(a.vars) > 0 {
			// Sort the atom's variables by global order position; the trie
			// levels must follow the variable ordering (§2.4).
			vars := a.vars
			byPos := make([]int, len(vars))
			for j := range byPos {
				byPos[j] = j
			}
			sort.Slice(byPos, func(x, y int) bool { return pos[vars[byPos[x]]] < pos[vars[byPos[y]]] })
			a.varPos = make([]int, len(vars))
			for j, p := range byPos {
				d := pos[vars[p]]
				a.varPos[j] = d
				l.legsAt[d] = append(l.legsAt[d], legs)
				l.levelsAt[d] = append(l.levelsAt[d], j)
			}
			legs++
			if len(a.equal) > 0 {
				a.perm = byPos
			} else {
				a.perm = make([]int, 0, len(atom.Args))
				for col, t := range atom.Args {
					if !t.IsVar() {
						a.perm = append(a.perm, col)
					}
				}
				for _, p := range byPos {
					a.perm = append(a.perm, a.cols[p])
				}
			}
			a.permSig = trie.PermSig(a.perm)
		}
		l.atoms[i] = a
	}
	for d, at := range l.legsAt {
		if len(at) == 0 {
			return nil, fmt.Errorf("leapfrog: variable %q is constrained by no atom", order[d])
		}
	}
	return l, nil
}

// Bind completes the layout into an Instance over db: every atom's
// relation is fetched and its index acquired — from opts.Tries when
// there is one, else built privately — and entered under the atom's
// constants; a constants-only guard atom is one membership test. Only an
// atom with a repeated variable is selected, projected and indexed
// privately. This is all the per-snapshot work of compilation; binding
// the same layout to a newer snapshot re-acquires the tries (from a
// delta-aware source, usually patched ones), repeats the descents, and
// repeats none of the layout's work.
func (l *Layout) Bind(db *relation.DB, opts BuildOpts) (*Instance, error) {
	counters, tries := opts.Counters, opts.Tries
	inst := &Instance{
		query:    l.query,
		order:    l.order,
		atoms:    make([]AtomLeg, 0, len(l.atoms)),
		legsAt:   l.legsAt,
		levelsAt: l.levelsAt,
		counters: counters,
	}
	for i, atom := range l.query.Atoms {
		a := &l.atoms[i]
		rel, err := db.Get(atom.Rel)
		if err != nil {
			return nil, err
		}
		if rel.Arity() != len(atom.Args) {
			return nil, fmt.Errorf("leapfrog: atom %s has %d args, relation has arity %d",
				atom, len(atom.Args), rel.Arity())
		}
		if len(a.vars) == 0 {
			// Constant-only guard atom: prefix is the whole tuple.
			if !rel.Contains(a.prefix) {
				inst.empty = true
			}
			continue
		}
		var tr *trie.Trie
		if len(a.equal) > 0 {
			derived, err := a.derive(rel)
			if err != nil {
				return nil, err
			}
			if tr, err = buildPrivate(derived, a.perm, counters); err != nil {
				return nil, err
			}
		} else {
			if tries != nil {
				// The index is the relation's own under a column order:
				// query-independent, so it is drawn from the shared source.
				tr, err = tries.Trie(rel, a.perm, counters)
				inst.embedded = append(inst.embedded, SourceEntry{Rel: rel, Perm: a.permSig})
			} else {
				tr, err = buildPrivate(rel, a.perm, counters)
			}
			if err != nil {
				return nil, err
			}
			if len(a.prefix) > 0 {
				tr, _ = tr.Under(a.prefix)
			}
		}
		if tr.Len(0) == 0 {
			inst.empty = true
		}
		inst.atoms = append(inst.atoms, AtomLeg{Trie: tr, VarPos: a.varPos})
	}
	return inst, nil
}

// buildPrivate indexes rel under perm for this instance alone.
func buildPrivate(rel *relation.Relation, perm []int, c *stats.Counters) (*trie.Trie, error) {
	permuted, err := rel.Permute(perm)
	if err != nil {
		return nil, err
	}
	return trie.Build(permuted, c), nil
}

// DeriveAtomRelation applies the atom's constants and repeated-variable
// equalities to rel and projects onto one column per distinct variable
// (first occurrence, in atom order). It returns the derived relation and
// the distinct variable names in column order. It is shared by every
// engine that must turn an atom into a variable-pure relation.
func DeriveAtomRelation(rel *relation.Relation, atom cq.Atom) (*relation.Relation, []string, error) {
	a := layoutAtom(atom)
	derived, err := a.derive(rel)
	if err != nil {
		return nil, nil, err
	}
	return derived, a.vars, nil
}

// Order returns the variable ordering (names, by depth).
func (in *Instance) Order() []string { return in.order }

// Query returns the underlying query.
func (in *Instance) Query() *cq.Query { return in.query }

// Counters returns the accounting sink (possibly nil).
func (in *Instance) Counters() *stats.Counters { return in.counters }

// NumVars returns the number of join variables.
func (in *Instance) NumVars() int { return len(in.order) }

// Empty reports whether some atom matches no tuple, forcing an empty
// result.
func (in *Instance) Empty() bool { return in.empty }

// Embedded returns the shared-source indices the instance draws on (nil
// when compiled without a trie source or when every atom has a repeated
// variable and built a private index). The slice is owned by the instance; callers must not
// modify it.
func (in *Instance) Embedded() []SourceEntry { return in.embedded }

// EstimateOrderCost approximates the cost model of Chu et al. [7] for the
// instance's variable ordering: the total number of partial assignments
// explored, estimated from trie fanouts. For each depth the expected
// number of extensions of a partial assignment is the minimum, over the
// participating atoms, of the atom's fanout into that level (level sizes
// for first levels). The cost is the sum over depths of the estimated
// prefix cardinalities.
//
// The unit is estimated partial assignments (an LFTJ work proxy, not
// wall time or bytes); 0 means a statically empty instance. Estimates
// are comparable across variable orders of the same query over the same
// relation versions — the planner's order-cost term relies on exactly
// that comparison — and not across queries or datasets. The walk is
// read-only and charges nothing to the instance's counters.
func (in *Instance) EstimateOrderCost() float64 {
	if in.empty {
		return 0
	}
	prefix := 1.0
	cost := 0.0
	for d := range in.order {
		ext := -1.0
		for _, li := range in.legsAt[d] {
			leg := in.atoms[li]
			lvl := indexOf(leg.VarPos, d)
			var f float64
			if lvl == 0 {
				f = float64(leg.Trie.Len(0))
			} else {
				f = leg.Trie.Fanout(lvl - 1)
			}
			if ext < 0 || f < ext {
				ext = f
			}
		}
		if ext < 0 {
			ext = 1
		}
		prefix *= ext
		cost += prefix
	}
	return cost
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
