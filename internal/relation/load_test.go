package relation

import (
	"reflect"
	"strings"
	"testing"
)

func TestLoadRelationWhitespace(t *testing.T) {
	input := "# header\n1 2\n3 4\n1 2\n"
	r, err := LoadRelation("E", strings.NewReader(input), LoadOptions{Comment: "#"})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2}, {3, 4}}
	if !reflect.DeepEqual(r.Tuples(), want) {
		t.Fatalf("tuples = %v", r.Tuples())
	}
}

func TestLoadRelationCSV(t *testing.T) {
	input := "3, 1\n1,2\n3,1\n"
	r, err := LoadRelation("R", strings.NewReader(input), LoadOptions{Comma: ','})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2}, {3, 1}}
	if !reflect.DeepEqual(r.Tuples(), want) {
		t.Fatalf("tuples = %v", r.Tuples())
	}
}

func TestLoadRelationErrors(t *testing.T) {
	if _, err := LoadRelation("R", strings.NewReader("1 2\n3\n"), LoadOptions{}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := LoadRelation("R", strings.NewReader("a b\n"), LoadOptions{}); err == nil {
		t.Error("non-numeric fields accepted")
	}
	if _, err := LoadRelation("R", strings.NewReader("1 2 3\n"), LoadOptions{Arity: 2}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := LoadRelation("R", strings.NewReader(""), LoadOptions{}); err == nil {
		t.Error("empty input without arity accepted")
	}
	r, err := LoadRelation("R", strings.NewReader("# only comments\n"), LoadOptions{Comment: "#", Arity: 2})
	if err != nil || r.Len() != 0 {
		t.Errorf("comment-only input: %v, len %d", err, r.Len())
	}
}
