package relation

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadOptions configures the delimited-text relation reader.
type LoadOptions struct {
	// Comma is the field delimiter; 0 means "any run of whitespace"
	// (SNAP-style). Use '\t' or ',' for TSV/CSV without quoting.
	Comma rune
	// Comment lines start with this prefix and are skipped ("" disables).
	Comment string
	// Arity, when > 0, requires exactly this many fields per row;
	// otherwise the first data row fixes the arity.
	Arity int
}

// LoadRelation reads a relation from delimited text: one tuple per line,
// every field an int64. It returns the sorted, deduplicated relation.
func LoadRelation(name string, r io.Reader, opts LoadOptions) (*Relation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b *Builder
	arity := opts.Arity
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if opts.Comment != "" && strings.HasPrefix(text, opts.Comment) {
			continue
		}
		var fields []string
		if opts.Comma == 0 {
			fields = strings.Fields(text)
		} else {
			fields = strings.Split(text, string(opts.Comma))
			for i := range fields {
				fields[i] = strings.TrimSpace(fields[i])
			}
		}
		if arity == 0 {
			arity = len(fields)
		}
		if len(fields) != arity {
			return nil, fmt.Errorf("relation %s: line %d has %d fields, want %d", name, line, len(fields), arity)
		}
		if b == nil {
			b = NewBuilder(name, arity)
		}
		row := make([]int64, arity)
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
		if arity == 0 {
			return nil, fmt.Errorf("relation %s: no data and no arity given", name)
		}
		b = NewBuilder(name, arity)
	}
	return b.Build(), nil
}
