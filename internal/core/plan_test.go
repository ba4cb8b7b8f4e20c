package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/leapfrog"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/td"
	"repro/internal/trie"
)

func TestNewPlanRejectsIncompatibleOrder(t *testing.T) {
	q := queries.Path(3)
	db := dataset.ErdosRenyi(10, 0.3, 1).DB(false)
	tree := td.MustNew([][]int{{0, 1}, {1, 2}}, []int{-1, 0})
	// x3 before x1 puts the child's variable before the root's.
	if _, err := NewPlan(q, db, tree, []string{"x3", "x2", "x1"}, nil); err == nil {
		t.Fatal("incompatible order accepted")
	}
	if _, err := NewPlan(q, db, tree, []string{"x1", "x2", "x3"}, nil); err != nil {
		t.Fatalf("compatible order rejected: %v", err)
	}
}

func TestNewPlanRejectsInvalidTD(t *testing.T) {
	q := queries.Path(3)
	db := dataset.ErdosRenyi(10, 0.3, 1).DB(false)
	bad := td.MustNew([][]int{{0, 1}}, []int{-1}) // misses atom E(x2,x3)
	if _, err := NewPlan(q, db, bad, []string{"x1", "x2", "x3"}, nil); err == nil {
		t.Fatal("invalid TD accepted")
	}
}

func TestNewPlanRejectsWrongOrderLength(t *testing.T) {
	q := queries.Path(3)
	db := dataset.ErdosRenyi(10, 0.3, 1).DB(false)
	tree := td.MustNew([][]int{{0, 1, 2}}, []int{-1})
	if _, err := NewPlan(q, db, tree, []string{"x1", "x2"}, nil); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := NewPlan(q, db, tree, []string{"x1", "x2", "zz"}, nil); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestPlanContractsOwnerlessBags(t *testing.T) {
	// A TD with a redundant middle bag that owns nothing: {x1,x2} -
	// {x2} - {x2,x3}. The plan must contract it and still count right.
	q := queries.Path(3)
	db := dataset.ErdosRenyi(12, 0.3, 2).DB(false)
	tree := td.MustNew([][]int{{0, 1}, {1}, {1, 2}}, []int{-1, 0, 1})
	plan, err := NewPlan(q, db, tree, []string{"x1", "x2", "x3"}, nil)
	if err != nil {
		t.Fatalf("plan with ownerless bag rejected: %v", err)
	}
	lftj := plan.Count(Policy{Disabled: true}).Count
	cached := plan.Count(Policy{}).Count
	if lftj != cached {
		t.Fatalf("counts differ: %d vs %d", lftj, cached)
	}
}

func TestPlanWideAdhesionUncached(t *testing.T) {
	// Construct a query whose only non-trivial TD has a 5-dimensional
	// adhesion: a K5 plus a pendant connected to all five — the bag
	// {pendant + K5} hangs below the K5 bag with adhesion of size 5.
	var atoms []cq.Atom
	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			atoms = append(atoms, cq.NewAtom("E", names[i], names[j]))
		}
	}
	for i := 0; i < 5; i++ {
		atoms = append(atoms, cq.NewAtom("E", names[i], "p"))
	}
	q := cq.New(atoms...)
	db := dataset.ErdosRenyi(8, 0.6, 3).DB(false)
	tree := td.MustNew([][]int{{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5}}, []int{-1, 0})
	plan, err := NewPlan(q, db, tree, append(append([]string(nil), names...), "p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dims := plan.CacheDims(); len(dims) != 0 {
		t.Fatalf("5-dimensional adhesion should be uncacheable, got dims %v", dims)
	}
	// Still counts correctly (as pure LFTJ).
	if got, want := plan.Count(Policy{}).Count, plan.Count(Policy{Disabled: true}).Count; got != want {
		t.Fatalf("counts differ: %d vs %d", got, want)
	}
}

func TestPlanAccessors(t *testing.T) {
	q := queries.Path(4)
	db := dataset.ErdosRenyi(15, 0.25, 4).DB(false)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Instance() == nil || plan.TD() == nil {
		t.Fatal("nil accessors")
	}
	if len(plan.Order()) != 4 {
		t.Fatalf("Order = %v", plan.Order())
	}
	dims := plan.CacheDims()
	for _, d := range dims {
		if d != 1 {
			t.Errorf("path cache dims = %v, want all 1", dims)
		}
	}
}

func TestAutoPlanSingletonForClique(t *testing.T) {
	q := queries.Clique(4)
	db := dataset.ErdosRenyi(12, 0.5, 5).DB(false)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TD().N() != 1 {
		t.Fatalf("clique TD has %d bags:\n%s", plan.TD().N(), plan.TD())
	}
	if len(plan.CacheDims()) != 0 {
		t.Fatalf("clique plan has cache sites %v", plan.CacheDims())
	}
}

func TestKeyAt(t *testing.T) {
	q := queries.Path(3)
	db := relation.NewDB(relation.MustNew("E", 2, [][]int64{{1, 2}, {2, 3}}))
	tree := td.MustNew([][]int{{0, 1}, {1, 2}}, []int{-1, 0})
	plan, err := NewPlan(q, db, tree, []string{"x1", "x2", "x3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mu := []int64{7, 8, 9}
	var got Key
	plan.keyAt(1, mu, &got) // bag 1's adhesion is {x2} at depth 1
	if !reflect.DeepEqual(got, Key{8, 0, 0, 0}) {
		t.Fatalf("keyAt = %v", got)
	}
}

// TestPlanRebind: a plan's shape bound to another database answers as a
// plan compiled against that database would, shares the shape's tables
// rather than deriving them again, accounts into the binder's counters,
// and leaves the original bound where it was. Constants, repeated
// variables and a guard atom ride along, since their derived relations
// are what a binding has to redo.
func TestPlanRebind(t *testing.T) {
	db1 := dataset.ErdosRenyi(14, 0.4, 5).DB(false)
	db2 := dataset.ErdosRenyi(14, 0.4, 6).DB(false)
	// The guard is an edge both graphs have, so neither result is empty.
	e1, _ := db1.Get("E")
	e2, _ := db2.Get("E")
	guard := e1.Subtract(e1.Subtract(e2)).Tuple(0)
	q := cq.MustParse(fmt.Sprintf("E(x,y), E(y,z), E(x,z), E(3,w), E(w,y), E(%d,%d)", guard[0], guard[1]))
	reg := trie.NewRegistry(0)

	plan, err := AutoPlan(q, db1, AutoOptions{Tries: reg})
	if err != nil {
		t.Fatal(err)
	}
	want1 := plan.Count(Policy{}).Count

	var c stats.Counters
	re, err := plan.Rebind(db2, leapfrog.BuildOpts{Counters: &c, Tries: reg})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := AutoPlan(q, db2, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Count(Policy{}).Count, fresh.Count(Policy{}).Count; got != want || got == 0 || got == want1 {
		t.Fatalf("re-bound count %d, plan compiled at that database %d (at the first database %d)", got, want, want1)
	}
	if c.TrieBuilds == 0 || c.TrieAccesses == 0 {
		t.Fatalf("binding and run charged nothing to the binder's counters: %+v", c)
	}
	if !re.SameShape(plan) || fresh.SameShape(plan) {
		t.Fatal("SameShape does not tell a re-bind from a separate compilation")
	}
	if &re.ownerOf[0] != &plan.ownerOf[0] || re.TD() != plan.TD() {
		t.Fatal("re-bind derived the shape's tables again")
	}
	if got := plan.Count(Policy{}).Count; got != want1 {
		t.Fatalf("original plan counts %d after a re-bind, %d before", got, want1)
	}

	un := re.Unbound()
	if un.Instance() != nil || un.Embedded() != nil || !un.SameShape(plan) {
		t.Fatal("Unbound kept a binding or lost the shape")
	}
	back, err := un.Rebind(db1, leapfrog.BuildOpts{Tries: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Count(Policy{}).Count; got != want1 {
		t.Fatalf("unbound shape re-bound to the first database counts %d, want %d", got, want1)
	}

	if _, err := plan.Rebind(relation.NewDB(), leapfrog.BuildOpts{}); err == nil {
		t.Fatal("re-bind to a database without the relation succeeded")
	}
}
