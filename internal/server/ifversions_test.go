package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// TestIfVersions pins the request precondition a coordinator's handshake
// rides on. For every way a request can execute — count, eval,
// aggregate, stream, a prepared statement — an if_versions equal to the
// pinned snapshot's vector (or naming only relations the query does not
// touch) runs exactly as the request without it, plan-cache hit
// included; one that is newer or older than the snapshot is refused with
// a *VersionMismatch reporting the snapshot's vector, before a stream's
// header and with nothing counted as a query.
func TestIfVersions(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(twoRelDB(), Config{})
	if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{1, 900}}}); err != nil {
		t.Fatal(err)
	}
	// E stands at 1, R at 0.
	const q = "E(x,y), E(y,z)"
	stmt, err := e.Prepare(Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	// run executes req and flattens what it answered into one comparable
	// value (a stream as its order, rows and summary).
	type answer struct {
		Resp  *Response
		Order []string
		Rows  [][]int64
		Sum   StreamSummary
	}
	run := func(req Request) (answer, error) {
		if req.Mode != "stream" {
			resp, err := e.DoCtx(ctx, req)
			if resp != nil {
				resp.Stats.DurationMS = 0
			}
			return answer{Resp: resp}, err
		}
		var a answer
		var err error
		a.Sum, err = e.StreamCtx(ctx, req,
			func(order []string) { a.Order = append([]string(nil), order...) },
			func(mu []int64) bool { a.Rows = append(a.Rows, append([]int64(nil), mu...)); return true })
		return a, err
	}

	requests := []Request{
		{Query: q, Mode: "count"},
		{Query: q, Mode: "eval", Limit: 5},
		{Query: q, Mode: "aggregate", Semiring: "sum"},
		{Query: q, Mode: "stream", Limit: 7},
		{Stmt: stmt.ID()},
		{Stmt: stmt.ID(), Mode: "stream"},
	}
	for _, base := range requests {
		name := fmt.Sprintf("%s%s/%s", base.Query, base.Stmt, base.Mode)
		want, err := run(base) // also warms the plan cache
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, err = run(base); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want.Resp != nil && !want.Resp.Stats.PlanCached {
			t.Fatalf("%s: warm repeat is not a plan-cache hit", name)
		}
		for label, vec := range map[string]map[string]uint64{
			"equal":               {"E": 1},
			"untouched relation":  {"E": 1, "R": 7},
			"only untouched ones": {"R": 7, "nope": 3},
			"empty":               {},
		} {
			req := base
			req.IfVersions = vec
			got, err := run(req)
			if err != nil {
				t.Fatalf("%s, if_versions %s: %v", name, label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, if_versions %s: answer differs from the request without it\ngot:  %+v\nwant: %+v", name, label, got, want)
			}
		}
		queries := e.Stats().Queries
		for label, vec := range map[string]map[string]uint64{
			"newer": {"E": 2},
			"older": {"E": 0},
		} {
			req := base
			req.IfVersions = vec
			got, err := run(req)
			var vm *VersionMismatch
			if !errors.As(err, &vm) {
				t.Fatalf("%s, if_versions %s: %v, want *VersionMismatch", name, label, err)
			}
			if !reflect.DeepEqual(vm.Have, map[string]uint64{"E": 1}) {
				t.Errorf("%s, if_versions %s: refusal reports %v, want the snapshot's E:1", name, label, vm.Have)
			}
			if got.Resp != nil || got.Order != nil || got.Rows != nil {
				t.Errorf("%s, if_versions %s: a refused request delivered %+v", name, label, got)
			}
		}
		if after := e.Stats().Queries; after != queries {
			t.Errorf("%s: refused requests counted as %d queries", name, after-queries)
		}
	}

	// The precondition is execution-only: it made no plan-cache entries of
	// its own.
	if st := e.Stats().Plans; st.Size != 1 {
		t.Errorf("plan cache holds %d entries after one query text under many if_versions, want 1", st.Size)
	}
}

// TestHTTPIfVersions is the wire form: a refused precondition is a 409
// whose body carries the snapshot's vector beside the error, for a
// buffered request and — as an ordinary JSON answer, not an NDJSON
// stream — for a stream.
func TestHTTPIfVersions(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, mode := range []string{"count", "stream"} {
		resp, body := postQuery(t, srv, fmt.Sprintf(`{"query": "E(x,y), E(y,z)", "mode": %q, "if_versions": {"E": 0}}`, mode))
		if mode == "count" {
			if resp.StatusCode != http.StatusOK || body["count"] == nil {
				t.Fatalf("%s with a matching if_versions: status %d, body %v", mode, resp.StatusCode, body)
			}
		}
		resp, body = postQuery(t, srv, fmt.Sprintf(`{"query": "E(x,y), E(y,z)", "mode": %q, "if_versions": {"E": 4}}`, mode))
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s with a wrong if_versions: status %d, want 409 (%v)", mode, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s refusal: Content-Type %q, want application/json", mode, ct)
		}
		if body["error"] == "" || !reflect.DeepEqual(body["versions"], map[string]any{"E": float64(0)}) || len(body) != 2 {
			t.Errorf("%s refusal: body %v, want exactly error and versions {E: 0}", mode, body)
		}
	}
}
