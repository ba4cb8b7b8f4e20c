package server

import (
	"context"
	"strings"
	"testing"
)

// respell is a non-canonical spelling of canonical query text: the same
// query with blanks around its punctuation, so it is never a plan-cache
// key and always parses.
func respell(text string) string {
	return strings.NewReplacer("(", " ( ", ",", " , ", ")", " ) ").Replace(text)
}

// replyBytes is the buffered reply's body for resp with duration_ms
// zeroed, the one field two executions of the same request may differ
// in.
func replyBytes(t *testing.T, resp *Response, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	r := *resp
	r.Stats.DurationMS = 0
	b, err := appendResponse(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParseSkipIsUnobservable runs one script of requests on two
// engines over the same data: the skipping engine gets canonical query
// texts, which resolve serves from the plan cache's key without a
// parse, and the reference gets every text respelled, so it parses each
// time as it always has. Step by step both must answer the same bytes
// (but duration_ms) and keep the same plan-cache counts — a canonical
// hit, a non-canonical spelling of a resident query, an entry evicted
// between resolve and planFor, a read after an update (re-bind) and a
// prepared statement included.
func TestParseSkipIsUnobservable(t *testing.T) {
	const (
		tri  = "E(x,y), E(y,z), E(x,z)"
		path = "E(a,b), E(b,c)"
		hop  = "E(5,y), E(y,z)"
	)
	cfg := Config{Workers: 1, PlanCache: 2}
	skip, ref := NewEngine(testDB(), cfg), NewEngine(testDB(), cfg)
	spell := map[*Engine]func(string) string{skip: func(s string) string { return s }, ref: respell}

	type step struct {
		name string
		run  func(e *Engine) string
	}
	do := func(text string, req Request) func(e *Engine) string {
		return func(e *Engine) string {
			req.Query = spell[e](text)
			resp, err := e.Do(req)
			return replyBytes(t, resp, err)
		}
	}
	stmts := map[*Engine]*Stmt{}
	steps := []step{
		{"first sight (miss)", do(tri, Request{})},
		{"canonical hit", do(tri, Request{})},
		{"canonical hit, eval", do(tri, Request{Mode: "eval", Limit: 3})},
		{"non-canonical spelling of a resident query", func(e *Engine) string {
			resp, err := e.Do(Request{Query: respell(tri)})
			return replyBytes(t, resp, err)
		}},
		{"second query", do(hop, Request{})},
		{"evicted between resolve and planFor", func(e *Engine) string {
			s, req, err := e.resolve(Request{Query: spell[e](tri)})
			if err != nil {
				t.Fatal(err)
			}
			if e == skip && s.q != nil {
				t.Fatalf("a resident canonical text was parsed")
			}
			// Two other queries push tri out of the 2-entry cache.
			for _, q := range []string{path, hop} {
				if _, err := e.Do(Request{Query: q}); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := e.plans.names(s.text); ok {
				t.Fatal("the entry was not evicted")
			}
			resp, err := s.exec(context.Background(), req)
			return replyBytes(t, resp, err)
		}},
		{"recompiled entry is a hit again", do(tri, Request{})},
		{"update", func(e *Engine) string {
			res, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{5, 7}, {7, 9}}})
			if err != nil || !res.Applied {
				t.Fatalf("update: %+v, %v", res, err)
			}
			return ""
		}},
		{"read after update (re-bind)", do(tri, Request{})},
		{"constant query after update", do(hop, Request{Mode: "eval"})},
		{"prepare", func(e *Engine) string {
			s, err := e.Prepare(Request{Query: spell[e](path), Mode: "eval", Limit: 4})
			if err != nil {
				t.Fatal(err)
			}
			stmts[e] = s
			return s.Text()
		}},
		{"prepared statement by id", func(e *Engine) string {
			resp, err := e.Do(Request{Stmt: stmts[e].ID()})
			return replyBytes(t, resp, err)
		}},
		{"prepared text as raw text", do(path, Request{Mode: "aggregate", Semiring: "min"})},
		{"unknown relation stays an error", do("F(x,y)", Request{})},
	}
	for _, st := range steps {
		got, want := st.run(skip), st.run(ref)
		if st.name == "canonical hit" && !strings.Contains(got, `"plan_cached":true`) {
			t.Fatalf("a repeated canonical text was no plan-cache hit: %s", got)
		}
		if got != want {
			t.Fatalf("%s: skipping engine answered\n%s\nthe parsing one\n%s", st.name, got, want)
		}
		if got, want := skip.Stats().Plans, ref.Stats().Plans; got != want {
			t.Fatalf("%s: plan-cache stats %v, parsing engine %v", st.name, got, want)
		}
	}
	if p := skip.Stats().Plans; p.Hits == 0 || p.Misses == 0 || p.Rebinds == 0 || p.Evictions == 0 {
		t.Fatalf("the script missed a path: %v", p)
	}
}
