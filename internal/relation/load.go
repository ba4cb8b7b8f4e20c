package relation

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadRelation reads a relation from whitespace-delimited text: one
// tuple per line, every field an int64, blank lines and lines starting
// with "#" skipped. The first data row fixes the arity. It returns the
// sorted, deduplicated relation.
func LoadRelation(name string, r io.Reader) (*Relation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if b == nil {
			b = NewBuilder(name, len(fields))
		}
		if len(fields) != b.arity {
			return nil, fmt.Errorf("relation %s: line %d has %d fields, want %d", name, line, len(fields), b.arity)
		}
		row := make([]int64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("relation %s: line %d field %d: %v", name, line, i+1, err)
			}
			row[i] = v
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
