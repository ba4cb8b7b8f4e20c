package dataset

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/relation"
)

// RelSpecs collects repeated -rel name=path flags; it is the flag.Value
// cmd/cltj and cmd/cltjd register for LoadDB's first argument.
type RelSpecs []string

func (r *RelSpecs) String() string { return strings.Join(*r, ",") }

// Set appends one name=path spec.
func (r *RelSpecs) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// LoadDB assembles a query database from the CLI-style sources shared
// by cmd/cltj and cmd/cltjd, in priority order:
//
//  1. relSpecs ("name=path", whitespace-delimited files, #-comments)
//     load arbitrary relations;
//  2. otherwise dataPath loads an edge-list graph as relation E;
//  3. otherwise the built-in skewed sample graph is used.
//
// The returned Graph is non-nil in the edge-list cases so callers can
// report its shape; symmetric only applies to those.
func LoadDB(relSpecs RelSpecs, dataPath string, symmetric bool) (*relation.DB, *Graph, error) {
	if len(relSpecs) > 0 {
		db := relation.NewDB()
		for _, spec := range relSpecs {
			name, path, ok := strings.Cut(spec, "=")
			if !ok {
				return nil, nil, fmt.Errorf("bad -rel %q, want name=path", spec)
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			r, err := relation.LoadRelation(name, f)
			f.Close()
			if err != nil {
				return nil, nil, err
			}
			db.Put(r)
		}
		return db, nil, nil
	}
	if dataPath == "" {
		g := WikiVote(1)
		return g.DB(symmetric), g, nil
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, err := Load(dataPath, f)
	if err != nil {
		return nil, nil, err
	}
	return g.DB(symmetric), g, nil
}
