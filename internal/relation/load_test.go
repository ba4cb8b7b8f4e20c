package relation

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestLoadRelationWhitespace(t *testing.T) {
	input := "# header\n1 2\n3 4\n1 2\n"
	r, err := LoadRelation("E", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2}, {3, 4}}
	if !reflect.DeepEqual(r.Tuples(), want) {
		t.Fatalf("tuples = %v", r.Tuples())
	}
}

func TestLoadRelationErrors(t *testing.T) {
	if _, err := LoadRelation("R", strings.NewReader("1 2\n3\n")); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := LoadRelation("R", strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric fields accepted")
	}
	if _, err := LoadRelation("R", strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	// With no data row there is no arity to give the relation.
	if _, err := LoadRelation("R", strings.NewReader("# only comments\n")); err == nil {
		t.Error("comment-only input accepted")
	}
}

// TestLoadRelationAllocs bounds the loader's heap objects: a line is
// split and parsed in place into one reused row, so what a load
// allocates grows with the relation's storage, not with its lines.
func TestLoadRelationAllocs(t *testing.T) {
	const lines = 10000
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "%d\t%d\n", i%977, i)
	}
	text := sb.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := LoadRelation("E", strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > lines/100 {
		t.Errorf("loading %d lines allocated %.0f objects, want at most %d", lines, allocs, lines/100)
	}
}
