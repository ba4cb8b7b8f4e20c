package cq

import (
	"fmt"
	"strings"
	"testing"
)

// boundQuery renders ring binary E atoms over variables x0 … in a ring
// and one more atom over all vars of them: ring+1 atoms, vars variables.
func boundQuery(ring, vars int) string {
	parts := make([]string, ring, ring+1)
	for i := range parts {
		parts[i] = fmt.Sprintf("E(x%d,x%d)", i%vars, (i+1)%vars)
	}
	args := make([]string, vars)
	for i := range args {
		args[i] = fmt.Sprintf("x%d", i)
	}
	return strings.Join(append(parts, "R("+strings.Join(args, ",")+")"), ", ")
}

// FuzzParse checks that the query parser never panics, that every
// successfully parsed query re-parses to an identical rendering (the
// printer and parser agree) and stays within the size bound, and that a
// query just past the bound, in atoms or in variables, is refused.
func FuzzParse(f *testing.F) {
	atBound := boundQuery(maxAtoms-1, maxVars)
	pastAtoms := boundQuery(maxAtoms, maxVars)
	pastVars := boundQuery(1, maxVars+1)
	if _, err := Parse(atBound); err != nil {
		f.Fatalf("query at the bound refused: %v", err)
	}
	for _, past := range []string{pastAtoms, pastVars} {
		if _, err := Parse(past); err == nil {
			f.Fatalf("query past the bound accepted: %s", past)
		}
	}
	for _, seed := range []string{
		atBound,
		pastAtoms,
		pastVars,
		"E(x,y)",
		"E(x,y), E(y,z).",
		"R(a, 42), S(-1, a)",
		"male_cast(p1, m1), female_cast(p2, m1)",
		" E ( x , y ) ",
		"E(x,y), ",
		"E(x,,y)",
		"((((",
		"E(x,y)E(y,z)",
		"エッジ(x,y)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		if len(q.Atoms) > maxAtoms || len(q.Vars()) > maxVars {
			t.Fatalf("accepted %d atoms over %d variables", len(q.Atoms), len(q.Vars()))
		}
		rendered := q.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendering %q of accepted input %q does not re-parse: %v", rendered, input, err)
		}
		if again.String() != rendered {
			t.Fatalf("round trip unstable: %q -> %q", rendered, again.String())
		}
	})
}
