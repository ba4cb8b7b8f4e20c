package relation

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// LoadRelation reads a relation from whitespace-delimited text: one
// tuple per line, every field an int64, blank lines and lines starting
// with "#" skipped. The first data row fixes the arity. It returns the
// sorted, deduplicated relation.
func LoadRelation(name string, r io.Reader) (*Relation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		b   *Builder
		row []int64 // one line's values; Builder.Add copies them
	)
	line := 0
	for sc.Scan() {
		line++
		f, rest := CutField(sc.Bytes())
		if len(f) == 0 || f[0] == '#' {
			continue
		}
		n := 1
		for g, more := CutField(rest); len(g) > 0; g, more = CutField(more) {
			n++
		}
		if b == nil {
			b = NewBuilder(name, n)
			row = make([]int64, n)
		}
		if n != b.arity {
			return nil, fmt.Errorf("relation %s: line %d has %d fields, want %d", name, line, n, b.arity)
		}
		for i := range row {
			v, err := strconv.ParseInt(string(f), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("relation %s: line %d field %d: %v", name, line, i+1, err)
			}
			row[i] = v
			f, rest = CutField(rest)
		}
		b.Add(row...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("relation %s: no data", name)
	}
	return b.Build(), nil
}

// CutField returns the first whitespace-delimited field of s and what
// follows it; the field is empty when s holds none. Whitespace is what
// unicode.IsSpace accepts, so successive calls split s as strings.Fields
// does, without allocating.
func CutField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) {
		r, n := utf8.DecodeRune(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += n
	}
	j := i
	for j < len(s) {
		r, n := utf8.DecodeRune(s[j:])
		if unicode.IsSpace(r) {
			break
		}
		j += n
	}
	return s[i:j], s[j:]
}
