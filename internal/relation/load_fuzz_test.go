package relation

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoadRelation: LoadRelation reads files a user names (-rel R=path
// on cltj and cltjd), so it must never panic. An accepted input has the
// field count of its first data row, and written back one tuple per
// line it loads to the identical relation.
func FuzzLoadRelation(f *testing.F) {
	for _, seed := range []string{
		"1 2\n3 4\n1 2\n",
		"# header\n\n  5\t-6  7\n-6 5 7\n",
		"+1 -0\r\n2 3\r\n",
		"9223372036854775807 -9223372036854775808\n",
		"9223372036854775808\n",
		"1 2\n3\n",
		"a b\n",
		"1,2\n",
		"# only comments\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		r, err := LoadRelation("R", strings.NewReader(input))
		if err != nil {
			return
		}
		if want := firstRowFields(input); r.Arity() != want {
			t.Fatalf("arity %d, first data row has %d fields", r.Arity(), want)
		}
		var text strings.Builder
		for _, tup := range r.Tuples() {
			for i, v := range tup {
				if i > 0 {
					text.WriteByte(' ')
				}
				text.WriteString(strconv.FormatInt(v, 10))
			}
			text.WriteByte('\n')
		}
		back, err := LoadRelation("R", strings.NewReader(text.String()))
		if err != nil {
			t.Fatalf("re-serialized relation refused: %v\n%s", err, text.String())
		}
		if back.Arity() != r.Arity() || !reflect.DeepEqual(back.Tuples(), r.Tuples()) {
			t.Fatalf("round trip changed the relation: %v (arity %d) -> %v (arity %d)", r.Tuples(), r.Arity(), back.Tuples(), back.Arity())
		}
	})
}

// firstRowFields is the field count of input's first line that is
// neither blank nor a #-comment.
func firstRowFields(input string) int {
	for _, line := range strings.Split(input, "\n") {
		if text := strings.TrimSpace(line); text != "" && !strings.HasPrefix(text, "#") {
			return len(strings.Fields(text))
		}
	}
	return 0
}
