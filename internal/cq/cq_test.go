package cq

import (
	"reflect"
	"testing"
)

func TestVarsFirstAppearanceOrder(t *testing.T) {
	q := New(
		NewAtom("E", "b", "a"),
		NewAtom("E", "a", "c"),
		NewAtom("E", "c", "b"),
	)
	if got := q.Vars(); !reflect.DeepEqual(got, []string{"b", "a", "c"}) {
		t.Fatalf("Vars = %v", got)
	}
	idx := q.VarIndex()
	if idx["b"] != 0 || idx["a"] != 1 || idx["c"] != 2 {
		t.Fatalf("VarIndex = %v", idx)
	}
}

func TestAtomVarsDedupes(t *testing.T) {
	a := Atom{Rel: "R", Args: []Term{V("x"), C(3), V("x"), V("y")}}
	if got := a.Vars(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("Vars = %v", got)
	}
	if got := a.String(); got != "R(x,3,x,y)" {
		t.Fatalf("String = %q", got)
	}
}

func TestValidate(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Error("empty query should fail validation")
	}
	if err := New(Atom{Rel: "", Args: []Term{V("x")}}).Validate(); err == nil {
		t.Error("empty relation name should fail validation")
	}
	if err := New(Atom{Rel: "R"}).Validate(); err == nil {
		t.Error("argless atom should fail validation")
	}
	if err := New(Atom{Rel: "R", Args: []Term{C(1)}}).Validate(); err == nil {
		t.Error("variable-free query should fail validation")
	}
	if err := New(NewAtom("R", "x", "y")).Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

// TestValidateAllocs: Parse validates every served query, and a yes/no
// answer must not cost a heap object.
func TestValidateAllocs(t *testing.T) {
	for _, text := range []string{"W(5,y), W(y,z)", "E(x,y), E(y,z), E(z,w)"} {
		q, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = q.Validate() }); n != 0 {
			t.Errorf("Validate(%s) allocates %.0f objects, want 0", text, n)
		}
	}
}

func TestGaifmanEdges(t *testing.T) {
	// Triangle x-y-z plus pendant w on z.
	q := New(
		NewAtom("E", "x", "y"),
		NewAtom("E", "y", "z"),
		NewAtom("E", "x", "z"),
		NewAtom("E", "z", "w"),
	)
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}}
	if got := q.GaifmanEdges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("GaifmanEdges = %v, want %v", got, want)
	}
}

func TestGaifmanEdgesTernaryAtom(t *testing.T) {
	// A single ternary atom makes its variables a clique.
	q := New(NewAtom("T", "a", "b", "c"))
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	if got := q.GaifmanEdges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("GaifmanEdges = %v, want %v", got, want)
	}
}

func TestAtomsWithVar(t *testing.T) {
	q := New(
		NewAtom("E", "x", "y"),
		NewAtom("E", "y", "z"),
		NewAtom("E", "z", "x"),
	)
	if got := q.AtomsWithVar("y"); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("AtomsWithVar(y) = %v", got)
	}
	if got := q.AtomsWithVar("nope"); got != nil {
		t.Fatalf("AtomsWithVar(nope) = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	q := New(NewAtom("E", "x", "y"), Atom{Rel: "R", Args: []Term{V("y"), C(7)}})
	if got := q.String(); got != "E(x,y), R(y,7)" {
		t.Fatalf("String = %q", got)
	}
	if got := V("x").String(); got != "x" {
		t.Fatalf("V term String = %q", got)
	}
	if got := C(-3).String(); got != "-3" {
		t.Fatalf("C term String = %q", got)
	}
}
