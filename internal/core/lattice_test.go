package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/leapfrog"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/td"
	"repro/internal/trie"
	"repro/internal/yannakakis"
)

// The paper's correctness claim covers every combination: CLFTJ over any
// tree decomposition with a strongly compatible order, under any cache
// policy, returns exactly what LFTJ returns. This file holds what the
// package's differential tests draw that claim's combinations from: one
// case generator (latticeCases), one policy lattice (lattice, run at
// latticeWorkers) and one memoized oracle per case. A cell is one plan of
// a case under one policy of the lattice; the sweep holds every cell in
// every mode to the oracle, and the white-box tests — charges, block
// lengths, worker identities — iterate the same cells with forEachCell.

// lattice is every cache regime the differential tests run: no caching,
// unbounded caches, FIFO, LRU and EvictNone at capacities from two entries
// to well past a small working set, support thresholds of 1 and 2 alone
// and under a bound.
var lattice = []Policy{
	{Disabled: true},
	{},
	{Capacity: 2},
	{Capacity: 3},
	{Capacity: 4},
	{Capacity: 7},
	{Capacity: 8},
	{Capacity: 9},
	{Capacity: 16},
	{Capacity: 2, Eviction: EvictLRU},
	{Capacity: 4, Eviction: EvictLRU},
	{Capacity: 5, Eviction: EvictLRU},
	{Capacity: 16, Eviction: EvictLRU},
	{Capacity: 256, Eviction: EvictLRU},
	{Capacity: 3, Eviction: EvictNone},
	{Capacity: 4, Eviction: EvictNone},
	{SupportThreshold: 1},
	{SupportThreshold: 2},
	{SupportThreshold: 2, Capacity: 5},
}

// unbounded reports whether pol caches every intermediate result it
// meets.
func unbounded(pol Policy) bool {
	return !pol.Disabled && pol.Capacity == 0 && pol.SupportThreshold == 0
}

// latticeWorkers are the lattice's worker counts: 1 is the sequential
// scan, 0 one worker per core, and the rest shard the root domain into
// as many strides, evenly or not. A cell runs on one worker and at one
// of the others.
var latticeWorkers = []int{1, 0, 2, 3, 4, 5, 7, 8}

// drawPolicy is a random draw's own regime, which the lattice gains for
// that case: any capacity below 20 under any eviction mode, with or
// without a support threshold, caching off one time in four.
func drawPolicy(rng *rand.Rand) Policy {
	return Policy{
		Capacity:         rng.Intn(20),
		SupportThreshold: rng.Intn(3),
		Eviction:         EvictionMode(rng.Intn(3)),
		Disabled:         rng.Intn(4) == 0,
	}
}

// latticeCase is one query over one database, with the plans it runs
// under.
type latticeCase struct {
	// family is the test that sweeps the case: "workloads", "skewed",
	// "imdb" or "random".
	family string
	name   string
	q      *cq.Query
	db     *relation.DB
	// tries is the source of the plans' indices (nil: private builds).
	tries leapfrog.TrieSource
	// plans holds AutoPlan's plan, then, for a random draw, one plan per
	// td.Enumerate tree over its compatible order that AutoPlan did not
	// pick: bag shapes AutoPlan never picks.
	plans []*Plan
	// policies is the lattice, plus a random draw's drawPolicy.
	policies []Policy

	mu  sync.Mutex
	orc *oracle
}

// oracle is what every execution of a case is held to.
type oracle struct {
	// rows is naive.Eval's q(D) over q.Vars(), sorted.
	rows  [][]int64
	count int64
	// canon[i] is plans[i]'s no-cache enumeration on one worker: the
	// sequence every enumeration of that plan emits under every policy.
	// sum[i] and min[i] fold it with sumWeight and minWeight.
	canon    [][][]int64
	sum, min []float64
}

// sumWeight and minWeight are the weights the sum-product and min-plus
// folds run with. Both are integers and every product and sum of them a
// test case yields stays below 2⁵³, so no association of ⊕ or ⊗ — worker
// count, block length or cache hit — can change a fold's bits.
func sumWeight(_ int, v int64) float64 { return float64(1 + v%3) }
func minWeight(_ int, v int64) float64 { return float64(v) }

// oracle returns the case's oracle, computing it on first use: naive.Eval
// once, and each plan's no-cache enumeration, which must be the naive
// rows in some order.
func (c *latticeCase) oracle(t *testing.T) *oracle {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.orc != nil {
		return c.orc
	}
	rows, err := naive.Eval(c.q, c.db)
	if err != nil {
		t.Fatalf("%s: naive: %v", c.name, err)
	}
	o := &oracle{rows: rows, count: int64(len(rows))}
	for i, p := range c.plans {
		canon := collectTuples(func(emit func([]int64) bool) {
			must(p.EvalParallelCtx(bg, Policy{Disabled: true, Workers: 1}, emit))
		})
		sameTuples(t, fmt.Sprintf("%s plan %d: no-cache rows in query order", c.name, i), inQueryOrder(c.q, p, canon), rows)
		sum, lo := 0.0, TropicalSemiring().Zero
		for _, mu := range canon {
			prod, tot := 1.0, 0.0
			for d, v := range mu {
				prod *= sumWeight(d, v)
				tot += minWeight(d, v)
			}
			sum += prod
			lo = TropicalSemiring().Add(lo, tot)
		}
		o.canon = append(o.canon, canon)
		o.sum = append(o.sum, sum)
		o.min = append(o.min, lo)
	}
	c.orc = o
	return o
}

// inQueryOrder returns rows, aligned with p's order, aligned with
// q.Vars() and sorted.
func inQueryOrder(q *cq.Query, p *Plan, rows [][]int64) [][]int64 {
	pos := make(map[string]int)
	for d, v := range p.Order() {
		pos[v] = d
	}
	out := make([][]int64, len(rows))
	for i, mu := range rows {
		for _, v := range q.Vars() {
			out[i] = append(out[i], mu[pos[v]])
		}
	}
	slices.SortFunc(out, relation.CompareTuples)
	return out
}

// latticeCases is the one case generator, built once per test binary.
var latticeCases = sync.OnceValue(func() []*latticeCase {
	cases := namedCases()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		cases = append(cases, randomCase(trial, rng))
	}
	return cases
})

// namedCases are the fixed shapes: every query family of internal/queries
// over a sparse random graph ("workloads"), over preferential-attachment
// graphs ("skewed") and over the IMDB cast stand-in ("imdb"). The skewed
// family also holds a disconnected query (its second bag's adhesion is
// empty), a constant atom, a repeated variable, a path over copy-on-write
// patched indices and a star whose hub joins nine atoms.
func namedCases() []*latticeCase {
	er := dataset.ErdosRenyi(30, 0.12, 7).DB(false)
	pa := dataset.PreferentialAttachment(60, 3, 21).DB(false)
	g := dataset.TriadicPA(90, 3, 0.5, 7)
	loops := relation.NewBuilder("L", 2)
	for v := int64(0); v < int64(g.N); v += 3 {
		loops.Add(v, v)
		loops.Add(v, v+1)
	}
	tpa := relation.NewDB(g.EdgeRelation("E", false), loops.Build())
	imdb := dataset.IMDBCast(dataset.IMDBConfig{Persons: 40, Movies: 15, Appearances: 150, PersonSkew: 1.7, Seed: 5})
	patchedQ, patchedDB, patchedReg := patchedPath()
	starQ, starDB := nineStar(rand.New(rand.NewSource(9)))
	var cases []*latticeCase
	for _, sh := range []struct {
		family, name string
		q            *cq.Query
		db           *relation.DB
		tries        leapfrog.TrieSource
	}{
		{"workloads", "3-path", queries.Path(3), er, nil},
		{"workloads", "4-path", queries.Path(4), er, nil},
		{"workloads", "5-path", queries.Path(5), er, nil},
		{"workloads", "3-cycle", queries.Cycle(3), er, nil},
		{"workloads", "4-cycle", queries.Cycle(4), er, nil},
		{"workloads", "5-cycle", queries.Cycle(5), er, nil},
		{"workloads", "lollipop-3-2", queries.Lollipop(3, 2), er, nil},
		{"workloads", "4-clique", queries.Clique(4), er, nil},
		{"workloads", "5-rand", queries.Random(5, 0.5, 3), er, nil},
		{"skewed", "pa-4-path", queries.Path(4), pa, nil},
		{"skewed", "pa-4-cycle", queries.Cycle(4), pa, nil},
		{"skewed", "pa-5-cycle", queries.Cycle(5), pa, nil},
		{"skewed", "pa-lollipop-3-2", queries.Lollipop(3, 2), pa, nil},
		{"skewed", "pa40-6-path", queries.Path(6), dataset.PreferentialAttachment(40, 3, 77).DB(false), nil},
		{"skewed", "tpa-4-path", queries.Path(4), tpa, nil},
		{"skewed", "tpa-5-path", queries.Path(5), tpa, nil},
		{"skewed", "tpa-4-cycle", queries.Cycle(4), tpa, nil},
		{"skewed", "tpa-5-cycle", queries.Cycle(5), tpa, nil},
		{"skewed", "tpa-triangle", queries.Clique(3), tpa, nil},
		{"skewed", "tpa-4-clique", queries.Clique(4), tpa, nil},
		{"skewed", "tpa-lollipop-3-2", queries.Lollipop(3, 2), tpa, nil},
		{"skewed", "tpa-rand-5", queries.Random(5, 0.5, 11), tpa, nil},
		{"skewed", "tpa-disconnected", cq.MustParse("E(x,y), L(z,w)"), tpa, nil},
		{"skewed", "tpa-constant", cq.MustParse("E(5,y), E(y,z), E(y,w)"), tpa, nil},
		{"skewed", "tpa-repeated-var", cq.MustParse("E(x,y), E(y,z), L(z,z)"), tpa, nil},
		{"skewed", "patched-4-path", patchedQ, patchedDB, patchedReg},
		{"skewed", "star-9", starQ, starDB, nil},
		{"imdb", "imdb-4-cycle", queries.IMDBCycle(2), imdb, nil},
		{"imdb", "imdb-6-cycle", queries.IMDBCycle(3), imdb, nil},
	} {
		cases = append(cases, newCase(sh.family, sh.name, sh.q, sh.db, sh.tries, false))
	}
	return cases
}

// randomCase draws a query shape — a path, cycle, lollipop, clique, star
// or queries.Random pattern, one time in four with a constant atom and one
// time in four with a repeated-variable atom — over an Erdős–Rényi graph.
// A draw whose result exceeds maxDrawRows is drawn again: every cell runs
// about a hundred executions.
func randomCase(trial int, rng *rand.Rand) *latticeCase {
	for {
		n := 8 + rng.Intn(12)
		g := dataset.ErdosRenyi(n, 0.1+rng.Float64()*0.2, rng.Int63())
		loops := relation.NewBuilder("L", 2)
		for v := int64(0); v < int64(n); v += 2 {
			loops.Add(v, v)
		}
		db := relation.NewDB(g.EdgeRelation("E", rng.Intn(2) == 0), loops.Build())
		var q *cq.Query
		switch trial % 6 {
		case 0:
			q = queries.Path(3 + rng.Intn(3))
		case 1:
			q = queries.Cycle(3 + rng.Intn(3))
		case 2:
			q = queries.Random(4+rng.Intn(2), 0.4+rng.Float64()*0.3, rng.Int63())
		case 3:
			q = queries.Lollipop(3, 1+rng.Intn(2))
		case 4:
			q = queries.Clique(3 + rng.Intn(2))
		default:
			q = starQuery(3 + rng.Intn(2))
		}
		atoms := slices.Clone(q.Atoms)
		vars := q.Vars()
		if rng.Intn(4) == 0 {
			atoms = append(atoms, cq.Atom{Rel: "E", Args: []cq.Term{cq.C(rng.Int63n(int64(n))), cq.V(vars[rng.Intn(len(vars))])}})
		}
		if rng.Intn(4) == 0 {
			v := vars[rng.Intn(len(vars))]
			atoms = append(atoms, cq.NewAtom("L", v, v))
		}
		q = cq.New(atoms...)
		if must(naive.Count(q, db)) > maxDrawRows {
			continue
		}
		c := newCase("random", fmt.Sprintf("trial %d %s", trial, q), q, db, nil, true)
		c.policies = append(slices.Clip(c.policies), drawPolicy(rng))
		return c
	}
}

// maxDrawRows bounds a random draw's result.
const maxDrawRows = 5000

// newCase plans q over db by AutoPlan and, if enumerate, by every
// td.Enumerate tree.
func newCase(family, name string, q *cq.Query, db *relation.DB, tries leapfrog.TrieSource, enumerate bool) *latticeCase {
	c := &latticeCase{family: family, name: name, q: q, db: db, tries: tries, policies: lattice}
	auto := must(AutoPlan(q, db, AutoOptions{Tries: tries}))
	c.plans = append(c.plans, auto)
	if !enumerate {
		return c
	}
	for _, tree := range td.Enumerate(q, td.Options{}) {
		order := orderNamesFor(q, tree)
		if tree.Canonical() == auto.TD().Canonical() && slices.Equal(order, auto.Order()) {
			continue
		}
		c.plans = append(c.plans, must(NewPlanWith(q, db, tree, order, nil, tries)))
	}
	return c
}

// orderNamesFor is tree's compatible order as variable names.
func orderNamesFor(q *cq.Query, tree *td.TD) []string {
	qvars := q.Vars()
	idx := tree.CompatibleOrder(len(qvars))
	out := make([]string, len(idx))
	for d, xi := range idx {
		out[d] = qvars[xi]
	}
	return out
}

// starQuery is the k-star E(x, y1), …, E(x, yk) over one relation.
func starQuery(k int) *cq.Query {
	atoms := make([]string, k)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("E(x, y%d)", i+1)
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// patchedPath is a 4-path over a graph one 16-tuple delta after the
// version its registry first indexed, so the plans bound over the
// registry run on patched tries.
func patchedPath() (*cq.Query, *relation.DB, *trie.Registry) {
	g := dataset.TriadicPA(60, 3, 0.5, 77)
	rel := g.EdgeRelation("E", false)
	st := relation.NewStore(rel)
	var ins, del [][]int64
	for i := 0; len(ins) < 8; i++ {
		if e := []int64{int64(i % 60), int64((i*7 + 3) % 60)}; e[0] != e[1] && !rel.Contains(e) {
			ins = append(ins, e)
		}
	}
	for i := 0; i < 8; i++ {
		del = append(del, slices.Clone(rel.Tuple(i*5)))
	}
	v, _, err := st.ApplyDelta(ins, del)
	if err != nil {
		panic(err)
	}
	q := queries.Path(4)
	reg := trie.NewRegistry(0)
	must(AutoPlan(q, relation.NewDB(rel), AutoOptions{Tries: reg}))
	reg.Observe(v)
	patches := reg.Stats().Patches
	db := relation.NewDB(v.Rel)
	must(AutoPlan(q, db, AutoOptions{Tries: reg}))
	if reg.Stats().Patches == patches {
		panic("patchedPath: the plan's indices are not patches")
	}
	return q, db, reg
}

// nineStar is a star whose hub x joins nine atoms E1(x, y1) … E9(x, y9)
// over sparse random relations: at x the leapfrog intersects nine legs.
func nineStar(rng *rand.Rand) (*cq.Query, *relation.DB) {
	var atoms []string
	var rels []*relation.Relation
	for i := 1; i <= 9; i++ {
		var tuples [][]int64
		for x := int64(0); x < 40; x++ {
			if rng.Intn(5) == 0 {
				continue
			}
			for range 1 + rng.Intn(2) {
				tuples = append(tuples, []int64{x, rng.Int63n(40)})
			}
		}
		name := fmt.Sprintf("E%d", i)
		rels = append(rels, relation.MustNew(name, 2, tuples))
		atoms = append(atoms, fmt.Sprintf("%s(x, y%d)", name, i))
	}
	return cq.MustParse(strings.Join(atoms, ", ")), relation.NewDB(rels...)
}

// caseNamed is the named case of that name.
func caseNamed(name string) *latticeCase {
	for _, c := range latticeCases() {
		if c.name == name {
			return c
		}
	}
	panic("no case " + name)
}

// cell is one plan of a case under one policy of the lattice (Workers
// unset).
type cell struct {
	*latticeCase
	i    int // the plan's index in plans
	plan *Plan
	pol  Policy
	// shard is the worker count the cell runs at beside one worker, and
	// leaf the block length beside 1: both rotate over the cells, so
	// every count and every length meets every family, plan and regime.
	shard, leaf int
}

func (cl cell) String() string {
	return fmt.Sprintf("%s plan %d (%s) %+v", cl.name, cl.i, strings.Join(cl.plan.Order(), ","), cl.pol)
}

// forEachCell runs f on every cell of the cases keep admits (nil: all).
// A cell's shard and leaf do not depend on keep.
//
// The sweep and the white-box tests that keep the default block length
// run in parallel with each other; a test that sets another one with
// atLeafLen must not.
func forEachCell(keep func(*latticeCase) bool, f func(cl cell)) {
	k := 0
	for _, c := range latticeCases() {
		for i, p := range c.plans {
			for _, pol := range c.policies {
				shard := latticeWorkers[1+k%(len(latticeWorkers)-1)]
				leaf := blockLens[1+k%(len(blockLens)-1)]
				if k++; keep == nil || keep(c) {
					f(cell{c, i, p, pol, shard, leaf})
				}
			}
		}
	}
}

// TestEnginesAgreeOnWorkloads, TestEnginesAgreeOnSkewedData,
// TestIMDBQueriesAgree and TestRandomizedCrossEngineEquivalence are the
// sweep, one test per case family.
func TestEnginesAgreeOnWorkloads(t *testing.T)          { sweep(t, "workloads") }
func TestEnginesAgreeOnSkewedData(t *testing.T)         { sweep(t, "skewed") }
func TestIMDBQueriesAgree(t *testing.T)                 { sweep(t, "imdb") }
func TestRandomizedCrossEngineEquivalence(t *testing.T) { sweep(t, "random") }

// sweep holds every cell of a family's cases, in every mode, to the
// oracle. Per plan, Yannakakis over the plan's TD counts |q(D)|. Per
// cell, on one worker and at the cell's shard count, the count executor
// and the count, sum-product and min-plus folds return |q(D)| and the
// oracle's folds to the bit. On one worker — an enumeration never shards, which
// TestParallelEvalMatchesSequential pins — the eval and the stream emit
// the plan's no-cache sequence row for row, and the capped eval at limits
// 1, 7, |q(D)|−1, |q(D)| and |q(D)|+1 emits its first limit rows and
// reports |q(D)|.
func sweep(t *testing.T, family string) {
	t.Parallel()
	for _, c := range latticeCases() {
		if c.family != family {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			o := c.oracle(t)
			for i, p := range c.plans {
				e, err := yannakakis.New(c.q, c.db, p.TD(), nil)
				if err != nil {
					t.Fatalf("plan %d: yannakakis: %v", i, err)
				}
				if got := e.Count(); got != o.count {
					t.Fatalf("plan %d: YTD counts %d, want %d\n%s", i, got, o.count, p.TD())
				}
			}
			forEachCell(func(x *latticeCase) bool { return x == c }, func(cl cell) {
				sweepCell(t, cl, o)
			})
		})
	}
}

func sweepCell(t *testing.T, cl cell, o *oracle) {
	t.Helper()
	p, n, canon := cl.plan, o.count, o.canon[cl.i]
	for _, w := range []int{1, cl.shard} {
		pol := cl.pol
		pol.Workers = w
		cnt := must(p.CountParallelCtx(bg, pol)).Count
		unit := must(AggregateParallelCtx(bg, p, pol, CountSemiring(), nil))
		sum := must(AggregateParallelCtx(bg, p, pol, SumProductSemiring(), sumWeight))
		lo := must(AggregateParallelCtx(bg, p, pol, TropicalSemiring(), minWeight))
		if cnt != n || unit != n || sum != o.sum[cl.i] || lo != o.min[cl.i] {
			t.Fatalf("%s workers %d: count %d, count fold %d, sum %v, min %v; want %d, %d, %v, %v",
				cl, w, cnt, unit, sum, lo, n, n, o.sum[cl.i], o.min[cl.i])
		}
	}
	pol := cl.pol
	pol.Workers = 1
	res := sameRows(t, cl.String()+" eval", canon, func(emit func([]int64) bool) (EvalResult, error) {
		return p.EvalParallelCtx(bg, pol, emit)
	})
	if res.Count != n {
		t.Fatalf("%s: eval counted %d, want %d", cl, res.Count, n)
	}
	sameRows(t, cl.String()+" stream", canon, func(emit func([]int64) bool) (EvalResult, error) {
		return p.EvalStreamCtx(bg, pol, 1, emit)
	})
	for _, limit := range []int64{1, 7, n - 1, n, n + 1} {
		if limit < 1 {
			continue
		}
		at := fmt.Sprintf("%s limit %d", cl, limit)
		res := sameRows(t, at, canon[:min(limit, n)], func(emit func([]int64) bool) (EvalResult, error) {
			return p.EvalLimitCtx(bg, pol, int(limit), emit)
		})
		if res.Count != n {
			t.Fatalf("%s: counted %d, want %d", at, res.Count, n)
		}
	}
}

// sameRows runs one enumeration and holds the rows it emits, in order, to
// want; the result it returns must report them.
func sameRows(t *testing.T, label string, want [][]int64, run func(emit func([]int64) bool) (EvalResult, error)) EvalResult {
	t.Helper()
	var k int
	var bad []int64
	res, err := run(func(mu []int64) bool {
		if k == len(want) || !slices.Equal(mu, want[k]) {
			bad = slices.Clone(mu)
			return false
		}
		k++
		return true
	})
	switch {
	case err != nil:
		t.Fatalf("%s: %v", label, err)
	case bad != nil && k < len(want):
		t.Fatalf("%s: row %d = %v, want %v", label, k, bad, want[k])
	case bad != nil:
		t.Fatalf("%s: more than %d rows", label, len(want))
	case k != len(want):
		t.Fatalf("%s: %d rows, want %d", label, k, len(want))
	case res.Emitted != int64(k):
		t.Fatalf("%s: %d rows, reported %d", label, k, res.Emitted)
	}
	return res
}

// atLeafLen runs f with leaf scans and stream row groups n keys long.
func atLeafLen(n int, f func()) {
	defer func(old int) { leafLen = old }(leafLen)
	leafLen = n
	f()
}

// blockLens are the block lengths the differential tests drive: 1 (the
// scalar Key/Next sequence through the leaf loop — the reference), tiny
// ones that straddle shard and block boundaries, 64, and blockLen, what
// every caller outside these tests runs.
var blockLens = []int{1, 2, 7, 64, blockLen}

// bg is the never-cancelled context the differential tests run under.
var bg = context.Background()

// must unwraps an execution that cannot fail under bg.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// collectTuples runs one eval-style execution and materializes its
// emitted tuple sequence (copies; order preserved).
func collectTuples(run func(emit func(mu []int64) bool)) [][]int64 {
	var out [][]int64
	run(func(mu []int64) bool {
		out = append(out, slices.Clone(mu))
		return true
	})
	return out
}

// sameTuples holds got to want, tuple for tuple.
func sameTuples(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		if relation.CompareTuples(got[i], want[i]) != 0 {
			t.Fatalf("%s: tuple %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}
