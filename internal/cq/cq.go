// Package cq models full conjunctive queries (CQs): sequences of subgoals
// R(t1,...,tk) where every ti is a variable or a constant, with no
// projection (§2.2 of the paper). It also derives the Gaifman graph used
// by the tree-decomposition machinery.
package cq

import (
	"fmt"
	"sort"
	"strings"
)

// Term is one argument position of an atom: either a variable (named) or
// an int64 constant.
type Term struct {
	// Var is the variable name; empty when the term is a constant.
	Var string
	// Const is the constant value; meaningful only when Var is empty.
	Const int64
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v int64) Term { return Term{Const: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term as it would appear in a query.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return fmt.Sprintf("%d", t.Const)
}

// Atom is one subgoal R(t1,...,tk).
type Atom struct {
	// Rel names the relation the subgoal matches against.
	Rel string
	// Args are the argument terms, in relation column order.
	Args []Term
}

// NewAtom builds an atom over the named relation. Strings become variables
// (they must be non-empty); use Term values directly for constants.
func NewAtom(rel string, vars ...string) Atom {
	args := make([]Term, len(vars))
	for i, v := range vars {
		args[i] = V(v)
	}
	return Atom{Rel: rel, Args: args}
}

// Vars returns the distinct variables of the atom in first-appearance
// order (vars(ϕ) in the paper).
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ",") + ")"
}

// Query is a full CQ: a sequence of atoms, all of whose variables are
// output variables (no projection).
type Query struct {
	// Atoms are the subgoals ϕ1,...,ϕm.
	Atoms []Atom
}

// New returns a query over the given atoms.
func New(atoms ...Atom) *Query { return &Query{Atoms: atoms} }

// Vars returns vars(q): the distinct variables across all atoms, in
// first-appearance order. This is the default variable ordering.
func (q *Query) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// VarIndex returns a map from variable name to its index in Vars().
func (q *Query) VarIndex() map[string]int {
	idx := make(map[string]int)
	for i, v := range q.Vars() {
		idx[v] = i
	}
	return idx
}

// Validate checks structural sanity: at least one atom, every atom has at
// least one argument, and variable names are non-empty. It does not check
// the database (arity checks happen at engine build time).
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("query has no atoms")
	}
	for i, a := range q.Atoms {
		if a.Rel == "" {
			return fmt.Errorf("atom %d has empty relation name", i)
		}
		if len(a.Args) == 0 {
			return fmt.Errorf("atom %d (%s) has no arguments", i, a.Rel)
		}
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				return nil
			}
		}
	}
	return fmt.Errorf("query has no variables")
}

// String renders the query as a comma-separated atom list.
func (q *Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// AtomsWithVar returns the indices of atoms containing the variable.
func (q *Query) AtomsWithVar(v string) []int {
	var out []int
	for i, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() && t.Var == v {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// GaifmanEdges returns the edges of the Gaifman graph as pairs of variable
// indices (per VarIndex), each with u < v, sorted and deduplicated. Two
// variables are adjacent iff they co-occur in some atom (§2.2).
func (q *Query) GaifmanEdges() [][2]int {
	idx := q.VarIndex()
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for _, a := range q.Atoms {
		vars := a.Vars()
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				u, v := idx[vars[i]], idx[vars[j]]
				if u > v {
					u, v = v, u
				}
				e := [2]int{u, v}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}
