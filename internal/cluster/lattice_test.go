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
// hold every backend to it cell by cell, and
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
	db     *relation.DB // the content after the step: the oracle's snapshot
	oracle http.Handler // a fresh one-worker engine over db
}

// foreignRoot heads every tuple of a foreign delta, so it lands on one
// shard at every fleet size. It heads the delta a replica misses too, so
// that delta reaches the replica group alone: a delta spread over other
// shards would race their updates against the group's failure, which
// cancels them.
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
			cur[d.Relation] = cur[d.Relation].Subtract(relation.MustNew(d.Relation, 2, d.Deletes)).Union(relation.MustNew(d.Relation, 2, d.Inserts))
		}
		st.db = relation.NewDB(cur["E"], cur["R"])
		st.oracle = server.NewHandler(server.NewEngine(st.db, server.Config{Workers: 1}))
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
	d = server.UpdateRequest{Relation: "E", Inserts: [][]int64{{foreignRoot, 160 + rng.Int63n(40)}, {foreignRoot, 100 + rng.Int63n(60)}}}
	add(&latticeStep{what: "insert under 7; the preferred replica misses it", missed: true, delta: d})
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
// workers, spelling and alt (for prepared statements: bit 0 picks the
// statement with defaults, bit 1 HTTP) drawn for it.
type latticeCell struct {
	query        string
	req          latticeReq
	pol, workers int
	respell      bool
	alt          int
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
	return fmt.Sprintf("%+v under %s at workers %d (respelled %v, alt %d)", c.req, pol, c.workers, c.respell, c.alt)
}

// latticeAnswer is an answer as a backend and the oracle are compared
// on: tuples is eval's sample or the stream's rows, ndjson a stream's
// body over HTTP. rebound is accounting, not compared.
type latticeAnswer struct {
	order            []string
	count            int64
	value            float64
	empty, truncated bool
	tuples           [][]int64
	ndjson           []byte
	rebound          bool
}

func answerOf(r *server.Response) *latticeAnswer {
	return &latticeAnswer{order: r.Order, count: r.Count, value: r.Value, empty: r.Empty, truncated: r.Truncated, tuples: r.Tuples, rebound: r.Stats.PlanRebound}
}

// collect returns the header and row callbacks that fill a's order and
// tuples from a stream.
func (a *latticeAnswer) collect() (func([]string), func([]int64) bool) {
	return func(o []string) { a.order = slices.Clone(o) },
		func(mu []int64) bool { a.tuples = append(a.tuples, slices.Clone(mu)); return true }
}

// inProcess answers req through a backend's Go API.
func inProcess(do func(context.Context, server.Request) (*server.Response, error),
	stream func(context.Context, server.Request, func([]string), func([]int64) bool) (server.StreamSummary, error),
	req server.Request) (*latticeAnswer, error) {
	if req.Mode != "stream" {
		resp, err := do(context.Background(), req)
		if err != nil {
			return nil, err
		}
		return answerOf(resp), nil
	}
	a := &latticeAnswer{}
	header, row := a.collect()
	sum, err := stream(context.Background(), req, header, row)
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
	switch {
	case got.ndjson != nil && !bytes.Equal(got.ndjson, want.ndjson):
		return fmt.Sprintf("NDJSON body\n%.400s\nthe oracle's\n%.400s", got.ndjson, want.ndjson)
	case !slices.Equal(got.order, want.order):
		return fmt.Sprintf("order %v, the oracle's %v", got.order, want.order)
	case got.count != want.count || got.value != want.value || got.empty != want.empty || got.truncated != want.truncated:
		return fmt.Sprintf("count %d value %v empty %v truncated %v; the oracle says %d, %v, %v, %v",
			got.count, got.value, got.empty, got.truncated, want.count, want.value, want.empty, want.truncated)
	case !slices.EqualFunc(got.tuples, want.tuples, func(a, b []int64) bool { return slices.Equal(a, b) }):
		return fmt.Sprintf("%d tuples differ from the oracle's %d", len(got.tuples), len(want.tuples))
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
	step  int
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

func (o *latticeOracle) answer(t *testing.T, step int, query string, req latticeReq) *latticeAnswer {
	t.Helper()
	v, _ := o.memo.LoadOrStore(oracleKey{step, query, req}, new(oracleEntry))
	e, st := v.(*oracleEntry), o.steps[step]
	e.once.Do(func() {
		e.a, e.err = overHTTP(st.oracle, server.Request{Query: query, Mode: req.mode, Semiring: req.semiring, Limit: req.limit})
		if e.err == nil && req.mode == "count" && e.a.count <= naiveRows {
			if n, err := naive.Count(cq.MustParse(query), st.db); err != nil || n != e.a.count {
				e.err = fmt.Errorf("count %d, internal/naive %d (%v)", e.a.count, n, err)
			}
		}
	})
	if e.err != nil {
		t.Fatalf("seed %d, step %d (%s), query %q, request %+v: oracle: %v", o.seed, step, st.what, query, req, e.err)
	}
	return e.a
}

// latticeBackend is one way of serving the engine's answers.
type latticeBackend struct {
	name  string
	fleet bool // refuses unshardableQueries with ErrNotShardable
	// apply takes one history step; ask answers one cell. want, when
	// set, is the request the oracle answers for the cell (a prepared
	// statement's defaults fill in what the cell leaves unset).
	apply func(t *testing.T, st *latticeStep)
	ask   func(c *latticeCell) (*latticeAnswer, error)
	want  func(c *latticeCell) latticeReq
	// guard, when set, checks after the history that the backend lived
	// through what the history is there to exercise.
	guard func(t *testing.T, rebounds int)
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
		for i := range o.steps {
			c = append(c, o.answer(t, i, q, latticeReq{mode: "count"}).count)
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
	// The in-process engine's trie budget is half of what a warm
	// unbounded one indexes, so evictions and resident indices coexist.
	probe := server.NewEngine(latticeDB(), cfg)
	for _, q := range latticeQueries() {
		if _, err := probe.Do(server.Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	budgeted := cfg
	budgeted.TrieBudget = probe.Registry().Stats().Bytes / 2
	sweepAll(t, o, engineBackend(budgeted), httpEngineBackend(cfg), stmtBackend(t, cfg), durableBackend(t, cfg))
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

// sweep walks b through the history, holding it to the oracle in every
// cell of every step.
func sweep(t *testing.T, o *latticeOracle, b *latticeBackend, rng *rand.Rand) {
	rebounds := 0
	for si, st := range o.steps {
		b.apply(t, st)
		for _, q := range latticeQueries() {
			refuse := b.fleet && slices.Contains(unshardableQueries, q)
			for _, r := range latticeRequests(o.answer(t, si, q, latticeReq{mode: "count"}).count) {
				c := &latticeCell{query: q, req: r, pol: rng.Intn(len(latticePolicies)), workers: 1 + rng.Intn(2), respell: rng.Intn(2) == 1, alt: rng.Intn(4)}
				want := c.req
				if b.want != nil {
					want = b.want(c)
				}
				got, err := b.ask(c)
				at := fmt.Sprintf("seed %d, step %d (%s), query %q, request %s, backend %s", o.seed, si, st.what, q, c, b.name)
				var hs *httpStatus
				switch {
				case refuse:
					if !errors.Is(err, ErrNotShardable) && !(errors.As(err, &hs) && hs.code == http.StatusBadRequest && strings.Contains(hs.body, "not shardable")) {
						t.Fatalf("%s: %v, want the refusal of an unshardable query", at, err)
					}
				case err != nil:
					t.Fatalf("%s: %v", at, err)
				default:
					if d := diffAnswers(got, o.answer(t, si, q, want)); d != "" {
						t.Fatalf("%s: %s", at, d)
					}
					if got.rebound {
						rebounds++
					}
				}
			}
		}
	}
	if b.guard != nil {
		b.guard(t, rebounds)
	}
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
		ask: func(c *latticeCell) (*latticeAnswer, error) { return inProcess(e.DoCtx, e.StreamCtx, c.request()) },
		guard: func(t *testing.T, rebounds int) {
			s := e.Stats()
			if compactions == 0 || s.Registry.Evictions == 0 || rebounds == 0 || s.Plans.Rebinds == 0 {
				t.Fatalf("history exercised too little: %d compactions, %d evictions, %d re-bound responses, plans %+v",
					compactions, s.Registry.Evictions, rebounds, s.Plans)
			}
		},
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
		ask: func(c *latticeCell) (*latticeAnswer, error) { return overHTTP(h, c.request()) },
	}
}

// stmtBackend executes statements prepared before the history, by id,
// in process and over HTTP: one without defaults per query, and one
// whose defaults (eval, limit 7, a bounded LRU cache) the cell's fields
// override where they are set.
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
			return inProcess(e.DoCtx, e.StreamCtx, req)
		},
		want: func(c *latticeCell) latticeReq {
			r := c.req
			if c.alt&1 == 1 && r.limit == 0 && (r.mode == "eval" || r.mode == "stream") {
				r.limit = 7
			}
			return r
		},
	}
}

// durableBackend is an engine over a data directory, closed and
// reopened — a warm boot: snapshots opened, the WAL replayed — where the
// history says so.
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
	return &latticeBackend{
		name: "durable",
		apply: func(t *testing.T, st *latticeStep) {
			applyTo(t, st, e)
			if st.reopen {
				e.Close()
				e = open(t, true)
			}
		},
		ask: func(c *latticeCell) (*latticeAnswer, error) { return inProcess(e.DoCtx, e.StreamCtx, c.request()) },
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
func fleetGuard(coord *Coordinator, engines ...*server.Engine) func(*testing.T, int) {
	return func(t *testing.T, _ int) {
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
		name:  fmt.Sprintf("shards=%d", n),
		fleet: true,
		apply: func(t *testing.T, st *latticeStep) {
			fleetApply(t, st, n, func(i int) []*server.Engine { return engines[i : i+1] }, func() error {
				_, err := coord.Update(context.Background(), st.delta)
				return err
			})
		},
		ask:   func(c *latticeCell) (*latticeAnswer, error) { return inProcess(coord.Do, coord.StreamCtx, c.request()) },
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
	// A replica group answers stats from its preferred replica.
	var answering []*server.Engine
	for _, p := range parts {
		answering = append(answering, p[0])
	}
	guard := fleetGuard(coord, answering...)
	return &latticeBackend{
		name:  fmt.Sprintf("shards=%d", n),
		fleet: true,
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
		guard: func(t *testing.T, rebounds int) {
			guard(t, rebounds)
			if lag.stale.Load() == 0 {
				t.Fatal("history exercised too little: the replica that missed a delta was never asked")
			}
		},
	}
}
