package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/stats"
)

// The serving tier's contract: every answer is the one a single
// sequential engine gives over the same data, whatever re-binds,
// patches, compactions, shards or replicas sit in between — or, from a
// fleet, the typed refusal of a query it cannot shard. This file is what
// the contract is tested over: one fixture and one query list, one
// seeded update history applied to every backend and to the oracle
// alike, one request lattice, and one memoized oracle per step × query ×
// request — a fresh Config{Workers: 1} engine booted on that step's
// snapshot, its count anchored to internal/naive. TestServiceLattice
// (one engine in process, over HTTP, by prepared statement, and
// durable), TestCoordinatorDifferential (coordinators over in-process
// shards) and TestHTTPClusterDifferential (coordinators over sockets)
// hold every backend to it cell by cell, each step's cells asked by
// concurrent clients while the step's update is applied, and
// TestCoordinatorUpdateDifferential holds a coordinator's shards to the
// partitions of its snapshots; the package's white-box tests draw their
// data and queries from the same generator.

// latticeSeed replays another update history: a failing cell logs its
// seed, and `-lattice-seed=N` reruns it.
var latticeSeed = flag.Int64("lattice-seed", 0, "update-history seed for the lattice tests (0 = default)")

const defaultLatticeSeed = 20261020

// latticeCfg configures every backend's engines: a compaction threshold
// the history's large patches cross.
var latticeCfg = server.Config{CompactFraction: 0.15}

// latticeDB is the package's one fixture: a skewed graph E and an
// independent relation R.
func latticeDB() *relation.DB {
	g := dataset.TriadicPA(150, 3, 0.4, 4242)
	r := dataset.TriadicPA(120, 2, 0.3, 99)
	return relation.NewDB(g.EdgeRelation("E", false), r.EdgeRelation("R", false))
}

// shardableQueries lead every atom with one variable, or route to the
// shard one constant head hashes to; a fleet refuses unshardableQueries
// with ErrNotShardable. The constants sit where the history moves them:
// 7 heads edges throughout, and as a non-leading constant beside 3 it
// leaves most shards empty; 3 heads base edges until the history deletes
// every one (a prefix whose base node is dead); 500 heads edges only
// while the overlay holds the two the history inserts, until a walk back
// drops them, and again once a compaction folds them into the base and a
// delete kills them there; 9999 never appears (no result).
var shardableQueries = []string{
	"E(x,y), E(x,z)",
	"E(x,y), R(x,z)",
	"E(x,7), E(x,z)",
	"E(x,7), E(x,3)",
	"E(3,y), E(3,z)",
	"E(500,y), E(500,z)",
	"E(9999,y)",
}

var unshardableQueries = []string{
	"E(x,y), E(y,z), E(x,z)",
	"E(a,b), R(b,c), R(c,d)",
	"E(x,y), R(y,z), E(z,x)",
	"E(7,y), E(y,z)",
	"E(500,y), E(y,z)",
	"E(3,y), E(y,z)",
	"E(9999,y), E(y,z)",
}

func latticeQueries() []string { return append(slices.Clone(shardableQueries), unshardableQueries...) }

// latticeStep is one update of the history and the content it leaves.
type latticeStep struct {
	what  string
	delta server.UpdateRequest // Relation "": no update (the load)
	// foreign: a fleet takes the delta on the shard its one root hashes
	// to, behind the coordinator's back. missed: the socket fleet's
	// preferred replica, on that same shard, fails it. shrink: every registry is emptied after
	// it. reopen: the durable engine is reopened before the step's reads.
	foreign, missed, shrink, reopen bool
	// expect is what the in-process engine must report installing: "base"
	// (the base's content, nothing compacted), "noop" or "compact".
	expect string
	db     *relation.DB   // the content after the step: the oracle's snapshot
	oracle *server.Engine // a fresh one-worker engine over db
}

// foreignRoot heads every tuple of a foreign delta, so it lands on one
// shard at every fleet size. It heads one insert of the delta a replica
// misses too, so the replica group — the shard it hashes to — takes part
// of that delta beside the other shards.
const foreignRoot = 7

// latticeHistory draws the seeded update history.
func latticeHistory(seed int64) []*latticeStep {
	rng := rand.New(rand.NewSource(seed))
	cur := map[string]*relation.Relation{}
	for _, name := range []string{"E", "R"} {
		cur[name], _ = latticeDB().Get(name)
	}
	base := cur["E"]
	// patch draws k inserts and up to k deletes of present tuples. No
	// insert is headed by 3 and no delete by 7 or 8 (500 heads no base
	// tuple), so the constants keep their roles.
	patch := func(name string, k int, extra ...[]int64) server.UpdateRequest {
		req := server.UpdateRequest{Relation: name, Inserts: extra}
		for i := 0; i < k; i++ {
			req.Inserts = append(req.Inserts, []int64{4 + rng.Int63n(156), rng.Int63n(160)})
			if tu := cur[name].Tuple(rng.Intn(cur[name].Len())); tu[0] != 7 && tu[0] != 8 {
				req.Deletes = append(req.Deletes, slices.Clone(tu))
			}
		}
		return req
	}
	foreign := func() server.UpdateRequest {
		return server.UpdateRequest{Relation: "E", Deletes: headedBy(cur["E"], foreignRoot)[:1],
			Inserts: [][]int64{{foreignRoot, 100 + rng.Int63n(60)}, {foreignRoot, 100 + rng.Int63n(60)}}}
	}
	overlay := [][]int64{{500, 7}, {500, 8}}
	var steps []*latticeStep
	add := func(st *latticeStep) {
		if d := st.delta; d.Relation != "" {
			cur[d.Relation] = withDelta(cur[d.Relation], d)
		}
		st.db = relation.NewDB(cur["E"], cur["R"])
		st.oracle = server.NewEngine(st.db, server.Config{Workers: 1})
		steps = append(steps, st)
	}
	add(&latticeStep{what: "load"})
	add(&latticeStep{what: "patch E; 500 heads two overlay edges", delta: patch("E", 1+rng.Intn(8), overlay...)})
	add(&latticeStep{what: "patch R", delta: patch("R", 1+rng.Intn(8))})
	add(&latticeStep{what: "foreign update", foreign: true, delta: foreign()})
	add(&latticeStep{what: "walk E back onto its base content; reopen", reopen: true, expect: "base",
		delta: server.UpdateRequest{Relation: "E", Inserts: base.Subtract(cur["E"]).Tuples(), Deletes: cur["E"].Subtract(base).Tuples()}})
	d := patch("E", 1+rng.Intn(4), overlay...)
	d.Deletes = append(d.Deletes, headedBy(cur["E"], 3)...)
	add(&latticeStep{what: "delete every edge 3 heads; 500's overlay edges again", delta: d})
	// 7 heads no edge to a node past 159 before this step: it applies.
	d = patch("E", 1+rng.Intn(8), []int64{foreignRoot, 160 + rng.Int63n(40)})
	add(&latticeStep{what: "patch E, an insert under 7 among it; the preferred replica misses it", missed: true, delta: d})
	add(&latticeStep{what: "replay the last delta: a no-op, and the replica catches up", expect: "noop", delta: d})
	add(&latticeStep{what: "compact E; reopen", reopen: true, expect: "compact", delta: patch("E", 70)})
	add(&latticeStep{what: "patch R; registries emptied", shrink: true, delta: patch("R", 1+rng.Intn(4))})
	d = patch("E", 1+rng.Intn(4))
	d.Deletes = append(d.Deletes, overlay...)
	add(&latticeStep{what: "delete the edges 500 heads from the base", delta: d})
	add(&latticeStep{what: "compact R", delta: patch("R", 40)})
	add(&latticeStep{what: "foreign update; reopen", foreign: true, reopen: true, delta: foreign()})
	return steps
}

// withDelta is r after d: its deletes, then its inserts.
func withDelta(r *relation.Relation, d server.UpdateRequest) *relation.Relation {
	return r.Subtract(relation.MustNew(d.Relation, 2, d.Deletes)).Union(relation.MustNew(d.Relation, 2, d.Inserts))
}

// headedBy lists r's tuples whose first value is v.
func headedBy(r *relation.Relation, v int64) [][]int64 {
	return slices.DeleteFunc(r.Tuples(), func(tu []int64) bool { return tu[0] != v })
}

// latticeReq is one request of the lattice before its policy, workers
// and spelling.
type latticeReq struct {
	mode, semiring string
	limit          int
}

// latticeRequests is the request lattice for a result of n rows: the
// count, once naming a semiring it must ignore; eval at limits 1, 7,
// n−1, n, n+1 and the default; the count (by default), sum and min
// aggregates; streams at limits 0 (all), 5 and n.
func latticeRequests(n int64) []latticeReq {
	reqs := []latticeReq{{mode: "count"}, {mode: "count", semiring: "ignored outside aggregate"}}
	for _, l := range []int64{1, 7, n - 1, n, n + 1} {
		if r := (latticeReq{mode: "eval", limit: int(l)}); l > 0 && !slices.Contains(reqs, r) {
			reqs = append(reqs, r)
		}
	}
	return append(reqs, latticeReq{mode: "eval"},
		latticeReq{mode: "aggregate"}, latticeReq{mode: "aggregate", semiring: "sum"},
		latticeReq{mode: "aggregate", semiring: "min"}, latticeReq{mode: "stream"}, latticeReq{mode: "stream", limit: 5},
		latticeReq{mode: "stream", limit: int(n)})
}

// latticePolicies are the cache regimes a cell runs under: no answer may
// depend on which.
var latticePolicies = []server.Request{
	{}, {NoCache: true}, {CacheCapacity: 2, CacheEviction: "lru"}, {CacheCapacity: 64}, {CacheSupport: 1}, {CacheCapacity: 3, CacheEviction: "none"},
}

// latticeCell is one query × request of a step, with the policy,
// workers, spelling, alt (for prepared statements: bit 0 picks the
// statement with defaults, bit 1 HTTP) and cut (an in-process stream's
// consumer stops after cut rows, or cancels after −cut) drawn for it.
type latticeCell struct {
	query        string
	req          latticeReq
	pol, workers int
	respell      bool
	alt, cut     int
}

func (c *latticeCell) request() server.Request {
	r := latticePolicies[c.pol]
	r.Query, r.Mode, r.Semiring, r.Limit, r.Workers = c.query, c.req.mode, c.req.semiring, c.req.limit, c.workers
	if c.respell {
		r.Query = strings.NewReplacer("(", " ( ", ",", " , ", ")", " ) ").Replace(c.query)
	}
	return r
}

func (c *latticeCell) String() string {
	pol, _ := json.Marshal(latticePolicies[c.pol])
	pol = bytes.Replace(bytes.Replace(pol, []byte(`"query":"",`), nil, 1), []byte(`"query":""`), nil, 1)
	return fmt.Sprintf("%+v under %s at workers %d (respelled %v, alt %d, cut %d)", c.req, pol, c.workers, c.respell, c.alt, c.cut)
}

// latticeAnswer is an answer as a backend and the oracle are compared
// on: tuples is eval's sample or the stream's rows, ndjson a stream's
// body over HTTP; cut marks a stream its consumer stopped short, whose
// rows are a prefix and whose summary is not compared. versions is the
// vector a buffered answer names, rebound accounting.
type latticeAnswer struct {
	order                 []string
	count                 int64
	value                 float64
	empty, truncated, cut bool
	tuples                [][]int64
	ndjson                []byte
	versions              map[string]uint64
	rebound               bool
}

func answerOf(r *server.Response) *latticeAnswer {
	return &latticeAnswer{order: r.Order, count: r.Count, value: r.Value, empty: r.Empty, truncated: r.Truncated, tuples: r.Tuples,
		versions: r.Versions, rebound: r.Stats.PlanRebound}
}

// collect returns the header and row callbacks that fill a's order and
// tuples from a stream.
func (a *latticeAnswer) collect() (func([]string), func([]int64) bool) {
	return func(o []string) { a.order = slices.Clone(o) },
		func(mu []int64) bool { a.tuples = append(a.tuples, slices.Clone(mu)); return true }
}

// inProcess answers req through a backend's Go API. A stream's consumer
// stops after cut rows when cut > 0, or cancels the request after −cut
// rows when cut < 0.
func inProcess(do func(context.Context, server.Request) (*server.Response, error),
	stream func(context.Context, server.Request, func([]string), func([]int64) bool) (server.StreamSummary, error),
	req server.Request, cut int) (*latticeAnswer, error) {
	if req.Mode != "stream" {
		resp, err := do(context.Background(), req)
		if err != nil {
			return nil, err
		}
		return answerOf(resp), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &latticeAnswer{}
	header, row := a.collect()
	sum, err := stream(ctx, req, header, func(mu []int64) bool {
		more := row(mu)
		if n := len(a.tuples); n == cut || n == -cut {
			a.cut = true
			if cut < 0 {
				cancel()
			} else {
				more = false
			}
		}
		return more
	})
	a.count, a.truncated = sum.Count, sum.Truncated
	return a, err
}

// httpStatus is a non-200 answer of the HTTP surface.
type httpStatus struct {
	code int
	body string
}

func (e *httpStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// serveJSON posts v to h at path: the body of a 200, else an *httpStatus.
func serveJSON(h http.Handler, path string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, &httpStatus{rec.Code, rec.Body.String()}
	}
	return rec.Body.Bytes(), nil
}

// overHTTP answers req through h's POST /query.
func overHTTP(h http.Handler, req server.Request) (*latticeAnswer, error) {
	out, err := serveJSON(h, "/query", req)
	if err != nil {
		return nil, err
	}
	if req.Mode == "stream" {
		a := &latticeAnswer{ndjson: out}
		header, row := a.collect()
		sum, err := server.ReadStream(bytes.NewReader(out), header, row)
		a.count, a.truncated = sum.Count, sum.Truncated
		return a, err
	}
	var resp server.Response
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, err
	}
	return answerOf(&resp), nil
}

// diffAnswers says how got differs from the oracle's want ("": it does
// not).
func diffAnswers(got, want *latticeAnswer) string {
	rows := want.tuples
	if got.cut && len(got.tuples) <= len(rows) {
		rows = rows[:len(got.tuples)]
	}
	switch {
	case got.ndjson != nil && !bytes.Equal(got.ndjson, want.ndjson):
		return fmt.Sprintf("NDJSON body\n%.400s\nthe oracle's\n%.400s", got.ndjson, want.ndjson)
	case !slices.Equal(got.order, want.order):
		return fmt.Sprintf("order %v, the oracle's %v", got.order, want.order)
	case !got.cut && (got.count != want.count || got.value != want.value || got.empty != want.empty || got.truncated != want.truncated):
		return fmt.Sprintf("count %d value %v empty %v truncated %v; the oracle says %d, %v, %v, %v",
			got.count, got.value, got.empty, got.truncated, want.count, want.value, want.empty, want.truncated)
	case !slices.EqualFunc(got.tuples, rows, func(a, b []int64) bool { return slices.Equal(a, b) }):
		return fmt.Sprintf("%d tuples (cut %v) differ from the oracle's %d", len(got.tuples), got.cut, len(want.tuples))
	}
	return ""
}

// latticeOracle answers each step × query × request once.
type latticeOracle struct {
	seed  int64
	steps []*latticeStep
	memo  sync.Map // oracleKey → *oracleEntry
}

type oracleKey struct {
	st    *latticeStep
	query string
	req   latticeReq
}

type oracleEntry struct {
	once sync.Once
	a    *latticeAnswer
	err  error
}

// naiveRows bounds the results whose count is anchored to internal/naive.
const naiveRows = 5000

// answer is the oracle's answer to query and req over st's content.
func (o *latticeOracle) answer(t *testing.T, st *latticeStep, query string, req latticeReq) *latticeAnswer {
	t.Helper()
	v, _ := o.memo.LoadOrStore(oracleKey{st, query, req}, new(oracleEntry))
	e := v.(*oracleEntry)
	e.once.Do(func() {
		r := server.Request{Query: query, Mode: req.mode, Semiring: req.semiring, Limit: req.limit}
		if req.mode == "stream" {
			e.a, e.err = overHTTP(server.NewHandler(st.oracle), r)
		} else {
			e.a, e.err = inProcess(st.oracle.DoCtx, nil, r, 0)
		}
		switch {
		case e.err != nil || req.mode != "count" || e.a.count > naiveRows:
		case req.semiring != "":
			if n := o.answer(t, st, query, latticeReq{mode: "count"}).count; n != e.a.count {
				e.err = fmt.Errorf("count %d, without the semiring %d", e.a.count, n)
			}
		default:
			if n, err := naive.Count(cq.MustParse(query), st.db); err != nil || n != e.a.count {
				e.err = fmt.Errorf("count %d, internal/naive %d (%v)", e.a.count, n, err)
			}
		}
	})
	if e.err != nil {
		t.Fatalf("seed %d, %s, query %q, request %+v: oracle: %v", o.seed, st.what, query, req, e.err)
	}
	return e.a
}

// partialStates are the contents a fleet of n shards passes through
// while step si's delta goes in, since a fleet's update is not atomic
// across shards: the content before it, with the sub-deltas of some of
// the shards applied and of the others not yet.
func (o *latticeOracle) partialStates(si, n int) (states []*latticeStep) {
	d := o.steps[si].delta
	for mask := 1; mask < 1<<n-1; mask++ {
		off := func(tu []int64) bool { return mask>>ShardOf(tu[0], n)&1 == 0 }
		cur := map[string]*relation.Relation{}
		for _, name := range []string{"E", "R"} {
			cur[name], _ = o.steps[si-1].db.Get(name)
		}
		cur[d.Relation] = withDelta(cur[d.Relation], server.UpdateRequest{Relation: d.Relation,
			Inserts: slices.DeleteFunc(slices.Clone(d.Inserts), off), Deletes: slices.DeleteFunc(slices.Clone(d.Deletes), off)})
		db := relation.NewDB(cur["E"], cur["R"])
		states = append(states, &latticeStep{what: fmt.Sprintf("step %d on shards %0*b of %d", si, n, mask, n),
			db: db, oracle: server.NewEngine(db, server.Config{Workers: 1})})
	}
	return states
}

// latticeBackend is one way of serving the engine's answers.
type latticeBackend struct {
	name string
	// shards counts a fleet's partitions (0: one engine). A fleet refuses
	// unshardableQueries with ErrNotShardable.
	shards int
	// apply takes one history step; ask answers one cell, concurrently
	// with other cells and with apply. want, when set, is the request the
	// oracle answers for the cell (a prepared statement's defaults fill in
	// what the cell leaves unset). served, when set, is the vector the
	// backend's answers name after the step it last applied.
	apply  func(t *testing.T, st *latticeStep)
	ask    func(c *latticeCell) (*latticeAnswer, error)
	want   func(c *latticeCell) latticeReq
	served func() map[string]uint64
	// guard, when set, checks after the history that the backend lived
	// through what the history is there to exercise.
	guard func(t *testing.T, n tally)
}

// tally is what a sweep saw of a backend: the responses that report a
// re-bound plan, and the requests answered without an error.
type tally struct{ rebounds, answered int64 }

// movedTwice reports whether err is a fleet's 409 for a read that met a
// shard moving during its one retry too: what a read racing a
// multi-shard update may be answered, since the coordinator learns each
// shard's new version only once that shard's part is in.
func movedTwice(err error) bool {
	var hs *httpStatus
	return (errors.Is(err, ErrSnapshotMoved) || errors.As(err, &hs) && hs.code == http.StatusConflict) &&
		strings.Contains(err.Error(), "after one retry already")
}

var sharedOracle struct {
	once sync.Once
	o    *latticeOracle
}

// theOracle returns the package's one oracle, built on first use so that
// every lattice test shares its memo, after checking that the history
// moves the constants as it claims.
func theOracle(t *testing.T) *latticeOracle {
	sharedOracle.once.Do(func() {
		seed := *latticeSeed
		if seed == 0 {
			seed = defaultLatticeSeed
		}
		sharedOracle.o = &latticeOracle{seed: seed, steps: latticeHistory(seed)}
	})
	o := sharedOracle.o
	t.Logf("lattice seed %d — reproduce with: go test ./internal/cluster -run %s -lattice-seed=%d", o.seed, t.Name(), o.seed)
	counts := func(q string) (c []int64) {
		for _, st := range o.steps {
			c = append(c, o.answer(t, st, q, latticeReq{mode: "count"}).count)
		}
		return c
	}
	if c := counts("E(500,y), E(y,z)"); c[0] != 0 || c[1] == 0 || c[4] != 0 || c[5] == 0 || c[9] == 0 || c[10] != 0 {
		t.Fatalf("500's edges did not come and go as the history says: counts %v", c)
	}
	if c := counts("E(3,y), E(y,z)"); c[4] == 0 || c[5] != 0 {
		t.Fatalf("3's edges were not all deleted at step 5: counts %v", c)
	}
	return o
}

// sweepAll walks each backend through the lattice in a parallel
// subtest. A backend draws its cells from the seed and its name.
func sweepAll(t *testing.T, o *latticeOracle, backends ...*latticeBackend) {
	for _, b := range backends {
		h := fnv.New64a()
		h.Write([]byte(b.name))
		rng := rand.New(rand.NewSource(o.seed ^ int64(h.Sum64())))
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			sweep(t, o, b, rng)
		})
	}
}

// TestServiceLattice holds one engine to the oracle in every cell of
// every step: in process, behind its HTTP handler, through prepared
// statements executed by id, and durable, reopened from its data
// directory.
func TestServiceLattice(t *testing.T) {
	o := theOracle(t)
	cfg := latticeCfg
	// The in-process engine's and the statements' trie budget is half of
	// what a warm unbounded one indexes, so evictions and resident
	// indices coexist.
	probe := server.NewEngine(latticeDB(), cfg)
	for _, q := range latticeQueries() {
		if _, err := probe.Do(server.Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	budgeted := cfg
	budgeted.TrieBudget = probe.Registry().Stats().Bytes / 2
	sweepAll(t, o, engineBackend(budgeted), httpEngineBackend(cfg), stmtBackend(t, budgeted), durableBackend(t, cfg))
}

// TestCoordinatorDifferential holds coordinators over 1, 2 and 4
// in-process shards to the oracle in every cell of every step.
func TestCoordinatorDifferential(t *testing.T) {
	o := theOracle(t)
	sweepAll(t, o, fleetBackend(t, latticeCfg, 1), fleetBackend(t, latticeCfg, 2), fleetBackend(t, latticeCfg, 4))
}

// TestHTTPClusterDifferential holds coordinators over 1, 2 and 4
// partitions behind real sockets, one of them a replica group, to the
// oracle in every cell of every step, NDJSON bytes included.
func TestHTTPClusterDifferential(t *testing.T) {
	o := theOracle(t)
	sweepAll(t, o, socketFleetBackend(t, latticeCfg, 1), socketFleetBackend(t, latticeCfg, 2), socketFleetBackend(t, latticeCfg, 4))
}

// TestCoordinatorUpdateDifferential routes the history through a 4-shard
// coordinator and holds every shard's content to its partition of the
// oracle's snapshot, step by step: each tuple lives on the shard its
// first value hashes to, and nowhere else. The replayed delta comes back
// unapplied — the retry-after-partial-failure convergence rests on it —
// and an update of an unknown relation is refused as a single engine
// refuses it, even with an empty delta that routes nowhere.
func TestCoordinatorUpdateDifferential(t *testing.T) {
	o := theOracle(t)
	const n = 4
	coord, engines := newFleet(t, latticeDB(), n, latticeCfg, Config{}, nil)
	for si, st := range o.steps {
		fleetApply(t, st, n, func(i int) []*server.Engine { return engines[i : i+1] }, func() error {
			res, err := coord.Update(context.Background(), st.delta)
			if err == nil && st.expect == "noop" && res.Applied {
				err = fmt.Errorf("the replay was applied: %+v", res)
			}
			return err
		})
		want, _, _ := Partition(st.db, n)
		for i, e := range engines {
			for _, name := range []string{"E", "R"} {
				got, _ := e.DB().Get(name)
				if w, _ := want[i].Get(name); !slices.Equal(got.Data(), w.Data()) {
					t.Fatalf("seed %d, step %d (%s): shard %d holds %d tuples of %s, its partition of the oracle's snapshot %d",
						o.seed, si, st.what, i, got.Len(), name, w.Len())
				}
			}
		}
	}
	if _, err := coord.Update(context.Background(), server.UpdateRequest{Relation: "nope"}); err == nil {
		t.Fatal("an update of an unknown relation was accepted")
	}
}

// sweepClients split each step's cells between them.
const sweepClients = 4

// sweep walks b through the history, holding it to the oracle in every
// cell of every step. A step's cells are drawn from rng before any is
// asked; sweepClients clients split them, each asked once, and once they
// have taken a drawn few the step is applied on this goroutine, so the
// cells in flight race the update and may or may not see it. Once both are done the answers are checked
// (see check) against the window of steps a request spanned: from the
// step installed when it started to the step being applied.
func sweep(t *testing.T, o *latticeOracle, b *latticeBackend, rng *rand.Rand) {
	var n tally
	served := make([]map[string]uint64, len(o.steps))
	type result struct {
		a      *latticeAnswer
		err    error
		during bool // asked before the step's apply returned
	}
	for si, st := range o.steps {
		var cells []*latticeCell
		for _, q := range latticeQueries() {
			for _, r := range latticeRequests(o.answer(t, st, q, latticeReq{mode: "count"}).count) {
				k := 1 + rng.Intn(8)
				cells = append(cells, &latticeCell{query: q, req: r, pol: rng.Intn(len(latticePolicies)), workers: 1 + rng.Intn(2),
					respell: rng.Intn(2) == 1, alt: rng.Intn(4), cut: [4]int{0, 0, k, -k}[rng.Intn(4)]})
			}
		}
		results := make([]result, len(cells))
		// The update starts once the clients have taken cell first.
		first, start := int64(rng.Intn(2*sweepClients)), make(chan struct{})
		var applied atomic.Bool
		var next atomic.Int64
		var wg sync.WaitGroup
		for range sweepClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(cells)); i = next.Add(1) - 1 {
					if i == first {
						close(start)
					}
					r := &results[i]
					r.during = !applied.Load()
					r.a, r.err = b.ask(cells[i])
				}
			}()
		}
		func() {
			defer wg.Wait()
			<-start
			b.apply(t, st)
			applied.Store(true)
		}()
		if b.served != nil {
			served[si] = b.served()
		}
		for i, c := range cells {
			lo, r := si, results[i]
			if r.during && si > 0 {
				lo = si - 1
			}
			at := fmt.Sprintf("seed %d, steps %d..%d (%s), query %q, request %s, backend %s", o.seed, lo, si, st.what, c.query, c, b.name)
			var hs *httpStatus
			switch {
			case b.shards > 0 && slices.Contains(unshardableQueries, c.query):
				if !errors.Is(r.err, ErrNotShardable) && !(errors.As(r.err, &hs) && hs.code == http.StatusBadRequest && strings.Contains(hs.body, "not shardable")) {
					t.Fatalf("%s: %v, want the refusal of an unshardable query", at, r.err)
				}
			case b.shards > 0 && lo < si && movedTwice(r.err):
			case r.err != nil && !(r.a != nil && r.a.cut && errors.Is(r.err, context.Canceled)):
				t.Fatalf("%s: %v", at, r.err)
			default:
				if d := o.check(t, b, c, r.a, lo, si, served); d != "" {
					t.Fatalf("%s: %s", at, d)
				}
				if r.a.rebound {
					n.rebounds++
				}
				if r.err == nil {
					n.answered++
				}
			}
		}
	}
	if b.guard != nil {
		b.guard(t, n)
	}
}

// check says how b's answer got to cell c, asked over steps lo..hi,
// differs from the oracle's ("": it does not). An answer naming the
// vector it ran at must equal the oracle at the step in the window whose
// served vector that is; any other must equal the oracle at a step of
// the window — or, from a fleet, at a content it passes through while
// step hi's delta goes in.
func (o *latticeOracle) check(t *testing.T, b *latticeBackend, c *latticeCell, got *latticeAnswer, lo, hi int, served []map[string]uint64) string {
	t.Helper()
	want := c.req
	if b.want != nil {
		want = b.want(c)
	}
	var states []*latticeStep
	named := got.versions != nil && b.served != nil
	for s := hi; s >= lo; s-- {
		if !named || agrees(served[s], got.versions) {
			states = append(states, o.steps[s])
		}
	}
	if len(states) == 0 {
		return fmt.Sprintf("versions %v name no step of the window (served %v)", got.versions, served[lo:hi+1])
	}
	d := diffAnswers(got, o.answer(t, states[0], c.query, want))
	if d == "" {
		return ""
	}
	if b.shards > 0 && lo < hi {
		states = append(states, o.partialStates(hi, b.shards)...)
	}
	for _, st := range states[1:] {
		if diffAnswers(got, o.answer(t, st, c.query, want)) == "" {
			return ""
		}
	}
	return d
}

// agrees reports whether vector vec holds every version named in sub.
func agrees(vec, sub map[string]uint64) bool {
	for name, v := range sub {
		if vec[name] != v {
			return false
		}
	}
	return true
}

// applyTo applies st to engines: its delta, and its registry pressure.
func applyTo(t *testing.T, st *latticeStep, engines ...*server.Engine) {
	t.Helper()
	for _, e := range engines {
		if st.delta.Relation != "" {
			if _, err := e.Update(st.delta); err != nil {
				t.Fatalf("step %q: %v", st.what, err)
			}
		}
		if st.shrink {
			e.Registry().Shrink(0)
		}
	}
}

// engineBackend is the engine in process, under a trie budget.
func engineBackend(cfg server.Config) *latticeBackend {
	e := server.NewEngine(latticeDB(), cfg)
	compactions := 0
	return &latticeBackend{
		name: "engine",
		apply: func(t *testing.T, st *latticeStep) {
			if st.delta.Relation != "" {
				res, err := e.Update(st.delta)
				if err != nil || map[string]bool{
					"base":    res.Compacted || res.PendingDelta != 0 || !res.Applied,
					"noop":    res.Applied,
					"compact": !res.Compacted,
				}[st.expect] {
					t.Fatalf("step %q installed %+v (%v), want %q", st.what, res, err, st.expect)
				}
				if res.Compacted {
					compactions++
				}
			}
			applyTo(t, &latticeStep{shrink: st.shrink}, e)
		},
		ask: func(c *latticeCell) (*latticeAnswer, error) {
			return inProcess(e.DoCtx, e.StreamCtx, c.request(), c.cut)
		},
		served: func() map[string]uint64 { return servedVector(e) },
		guard: func(t *testing.T, n tally) {
			s := e.Stats()
			rebindGuard(t, s, n)
			if compactions == 0 || s.Lifetime.DeltaApplies != s.Updates || s.Registry.Bytes < 0 || s.Registry.Hits == 0 ||
				s.Queries != n.answered || s.LiveVersions > 2*len(s.Relations) {
				t.Fatalf("%d compactions; %d delta applies for %d updates; registry %+v; %d queries for %d answered requests; %d live versions of %d relations",
					compactions, s.Lifetime.DeltaApplies, s.Updates, s.Registry, s.Queries, n.answered, s.LiveVersions, len(s.Relations))
			}
		},
	}
}

// servedVector is the vector e's answers name: every relation's
// installed version.
func servedVector(e *server.Engine) map[string]uint64 {
	st := e.Stats()
	return relationVersions(&st, nil)
}

// rebindGuard checks that plan re-binds raced the trie budget's
// evictions: responses reported a re-bound plan, no more than the plan
// cache counted re-binds, while the registry evicted.
func rebindGuard(t *testing.T, s server.EngineStats, n tally) {
	t.Helper()
	if n.rebounds == 0 || s.Plans.Rebinds < n.rebounds || s.Registry.Evictions == 0 {
		t.Fatalf("history exercised too little: %d re-bound responses, %d evictions, plans %+v", n.rebounds, s.Registry.Evictions, s.Plans)
	}
}

// httpEngineBackend is the engine behind server.NewHandler, updated
// over POST /update. Every query's plan is resident and bound when an
// update arrives, so an applied one must unbind exactly the plans over
// its relation: the release that keeps a superseded version's tries
// from outliving it.
func httpEngineBackend(cfg server.Config) *latticeBackend {
	e := server.NewEngine(latticeDB(), cfg)
	h := server.NewHandler(e)
	return &latticeBackend{
		name: "handler",
		apply: func(t *testing.T, st *latticeStep) {
			if st.delta.Relation == "" {
				return
			}
			before := e.Stats().Plans.Invalidations
			out, err := serveJSON(h, "/update", st.delta)
			var res server.UpdateResult
			if err != nil || json.Unmarshal(out, &res) != nil {
				t.Fatalf("step %q: POST /update answered %s (%v)", st.what, out, err)
			}
			want := int64(0)
			for _, q := range latticeQueries() {
				if res.Applied && strings.Contains(q, st.delta.Relation+"(") {
					want++
				}
			}
			if got := e.Stats().Plans.Invalidations - before; got != want {
				t.Fatalf("step %q (applied %v) unbound %d plans, want the %d over %s", st.what, res.Applied, got, want, st.delta.Relation)
			}
		},
		ask:    func(c *latticeCell) (*latticeAnswer, error) { return overHTTP(h, c.request()) },
		served: func() map[string]uint64 { return servedVector(e) },
	}
}

// stmtBackend executes statements prepared before the history, by id,
// in process and over HTTP, under a trie budget: one without defaults
// per query, and one whose defaults (eval, limit 7, a bounded LRU cache)
// the cell's fields override where they are set.
func stmtBackend(t *testing.T, cfg server.Config) *latticeBackend {
	e := server.NewEngine(latticeDB(), cfg)
	h := server.NewHandler(e)
	stmts := map[string][]string{}
	for _, q := range latticeQueries() {
		for _, def := range []server.Request{{Query: q}, {Query: q, Mode: "eval", Limit: 7, CacheCapacity: 16, CacheEviction: "lru"}} {
			s, err := e.Prepare(def)
			if err != nil {
				t.Fatal(err)
			}
			stmts[q] = append(stmts[q], s.ID())
		}
	}
	return &latticeBackend{
		name:  "stmt",
		apply: func(t *testing.T, st *latticeStep) { applyTo(t, st, e) },
		ask: func(c *latticeCell) (*latticeAnswer, error) {
			req := c.request()
			req.Query, req.Stmt = "", stmts[c.query][c.alt&1]
			if c.alt&2 != 0 {
				return overHTTP(h, req)
			}
			return inProcess(e.DoCtx, e.StreamCtx, req, c.cut)
		},
		want: func(c *latticeCell) latticeReq {
			r := c.req
			if c.alt&1 == 1 && r.limit == 0 && (r.mode == "eval" || r.mode == "stream") {
				r.limit = 7
			}
			return r
		},
		served: func() map[string]uint64 { return servedVector(e) },
		guard:  func(t *testing.T, n tally) { rebindGuard(t, e.Stats(), n) },
	}
}

// durableBackend is an engine over a data directory, closed and
// reopened — a warm boot: snapshots opened, the WAL replayed — where the
// history says so. A reopen is a barrier: it waits for the cells in
// flight, and the cells after it wait for the reopened engine.
func durableBackend(t *testing.T, cfg server.Config) *latticeBackend {
	cfg.DataDir = t.TempDir()
	open := func(t *testing.T, warm bool) *server.Engine {
		e, got, err := server.OpenEngine(cfg, func() (*relation.DB, error) { return latticeDB(), nil })
		if err != nil || got != warm {
			t.Fatalf("OpenEngine: warm %v, %v; want warm %v", got, err, warm)
		}
		return e
	}
	e := open(t, false)
	t.Cleanup(func() { e.Close() })
	var mu sync.RWMutex // e, replaced by a reopen
	return &latticeBackend{
		name: "durable",
		apply: func(t *testing.T, st *latticeStep) {
			applyTo(t, st, e)
			if st.reopen {
				mu.Lock()
				defer mu.Unlock()
				e.Close()
				e = open(t, true)
			}
		},
		ask: func(c *latticeCell) (*latticeAnswer, error) {
			mu.RLock()
			defer mu.RUnlock()
			return inProcess(e.DoCtx, e.StreamCtx, c.request(), c.cut)
		},
		served: func() map[string]uint64 { return servedVector(e) },
	}
}

// fleetApply applies st to a fleet: through update, or — for a foreign
// step — straight to the engines serving foreignRoot's shard among n,
// behind the coordinator's back.
func fleetApply(t *testing.T, st *latticeStep, n int, engines func(shard int) []*server.Engine, update func() error) {
	switch {
	case st.foreign:
		applyTo(t, &latticeStep{what: st.what, delta: st.delta}, engines(ShardOf(foreignRoot, n))...)
	case st.delta.Relation != "":
		if err := update(); err != nil {
			t.Fatalf("step %q: %v", st.what, err)
		}
	}
	for i := 0; i < n; i++ {
		applyTo(t, &latticeStep{shrink: st.shrink}, engines(i)...)
	}
}

// fleetGuard checks what a coordinator must have lived through and
// folded: a snapshot retry after a foreign update, and its lifetime
// counters as the exact fold of the engines answering its stats.
func fleetGuard(coord *Coordinator, engines ...*server.Engine) func(*testing.T, tally) {
	return func(t *testing.T, _ tally) {
		st, err := coord.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var lifetime stats.Counters
		for _, e := range engines {
			es := e.Stats()
			lifetime.Merge(&es.Lifetime)
		}
		if st.SnapshotRetries == 0 || !reflect.DeepEqual(st.Lifetime, lifetime) || st.Shards != len(st.PerShard) {
			t.Fatalf("%d snapshot retries; lifetime %+v over %d shards (%d listed), the engines' fold %+v",
				st.SnapshotRetries, st.Lifetime, st.Shards, len(st.PerShard), lifetime)
		}
	}
}

// fleetBackend is a coordinator over n in-process shards.
func fleetBackend(t *testing.T, cfg server.Config, n int) *latticeBackend {
	coord, engines := newFleet(t, latticeDB(), n, cfg, Config{}, nil)
	return &latticeBackend{
		name:   fmt.Sprintf("shards=%d", n),
		shards: n,
		apply: func(t *testing.T, st *latticeStep) {
			fleetApply(t, st, n, func(i int) []*server.Engine { return engines[i : i+1] }, func() error {
				_, err := coord.Update(context.Background(), st.delta)
				return err
			})
		},
		ask: func(c *latticeCell) (*latticeAnswer, error) {
			return inProcess(coord.Do, coord.StreamCtx, c.request(), c.cut)
		},
		guard: fleetGuard(coord, engines...),
	}
}

// laggingReplica misses updates while armed, and counts the reads it
// refused for standing behind.
type laggingReplica struct {
	Shard
	miss  atomic.Bool
	stale atomic.Int64
}

func (l *laggingReplica) note(err error) error {
	if vm := (*server.VersionMismatch)(nil); errors.As(err, &vm) {
		l.stale.Add(1)
	}
	return err
}

func (l *laggingReplica) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	resp, err := l.Shard.Do(ctx, req)
	return resp, l.note(err)
}

func (l *laggingReplica) Stream(ctx context.Context, req server.Request, header func([]string), row func([]int64) bool) (server.StreamSummary, error) {
	sum, err := l.Shard.Stream(ctx, req, header, row)
	return sum, l.note(err)
}

func (l *laggingReplica) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	if l.miss.Load() {
		return nil, errShardDown
	}
	return l.Shard.Update(ctx, req)
}

// socketFleetBackend is a coordinator over n partitions behind real
// sockets, served through cluster.NewHandler: the partition foreignRoot
// hashes to is a replica group whose preferred replica misses the delta
// the history marks, every other partition one endpoint.
func socketFleetBackend(t *testing.T, cfg server.Config, n int) *latticeBackend {
	dbs, routing, err := Partition(latticeDB(), n)
	if err != nil {
		t.Fatal(err)
	}
	group := ShardOf(foreignRoot, n)
	parts := make([][]*server.Engine, n) // the engines serving each partition
	shards := make([]Shard, n)
	var lag *laggingReplica
	for i, pdb := range dbs {
		var clients []Shard
		for len(clients) == 0 || i == group && len(clients) < 2 {
			e := server.NewEngine(pdb, cfg)
			srv := httptest.NewServer(server.NewHandler(e))
			t.Cleanup(srv.Close)
			parts[i] = append(parts[i], e)
			clients = append(clients, NewClient(srv.URL, ClientConfig{Timeout: 10 * time.Second}))
		}
		shards[i] = clients[0]
		if i == group {
			lag = &laggingReplica{Shard: clients[0]}
			shards[i] = NewReplicaSet([]Shard{lag, clients[1]}, ReplicaConfig{})
		}
	}
	coord, err := New(routing, shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(coord)
	guard := fleetGuard(coord, slices.Concat(parts...)...)
	return &latticeBackend{
		name:   fmt.Sprintf("shards=%d", n),
		shards: n,
		apply: func(t *testing.T, st *latticeStep) {
			fleetApply(t, st, n, func(i int) []*server.Engine { return parts[i] }, func() error {
				lag.miss.Store(st.missed)
				defer lag.miss.Store(false)
				_, err := serveJSON(h, "/update", st.delta)
				hs := (*httpStatus)(nil)
				switch missed502 := errors.As(err, &hs) && hs.code == http.StatusBadGateway; {
				case st.missed && !missed502:
					return fmt.Errorf("a delta a replica missed answered %v, want a 502", err)
				case st.missed:
					return nil
				}
				return err
			})
		},
		ask: func(c *latticeCell) (*latticeAnswer, error) { return overHTTP(h, c.request()) },
		guard: func(t *testing.T, n tally) {
			guard(t, n)
			if lag.stale.Load() == 0 {
				t.Fatal("history exercised too little: the replica that missed a delta was never asked")
			}
		},
	}
}
