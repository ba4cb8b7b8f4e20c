package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/leapfrog"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/td"
)

// The traced run splits its window: a stretch with span recording off
// (the base of bench.trace_overhead_pct), a stretch with it on, then the
// layer ladder. The micro measurements run on fixed iteration counts.
const (
	untracedShare = 0.2
	tracedShare   = 0.3
	ladderShare   = 0.35
	// lftjMaxRows caps the results a request may have for vanilla LFTJ to
	// be run beside it: LFTJ enumerates every result, and the cached
	// workloads' larger counts (10^8 rows) would take minutes.
	lftjMaxRows = 1 << 19
)

// samples holds, for each measurement name, the values seen per request
// type. Layer metrics are medians per type, combined by each type's
// share of the cycle, so one slow type cannot hide behind many fast ones
// and one outlier cannot move a type.
type samples struct {
	weights []float64
	byName  map[string][][]float64
}

func newSamples(weights []float64) *samples {
	return &samples{weights: weights, byName: map[string][][]float64{}}
}

func (s *samples) add(name string, typ int, v float64) {
	rows := s.byName[name]
	if rows == nil {
		rows = make([][]float64, len(s.weights))
		s.byName[name] = rows
	}
	rows[typ] = append(rows[typ], v)
}

// med is the median of name's samples for one type (0 without samples).
func (s *samples) med(name string, typ int) float64 {
	if rows := s.byName[name]; rows != nil {
		return median(rows[typ])
	}
	return 0
}

// mean is the mean of name's samples for one type.
func (s *samples) mean(name string, typ int) float64 {
	rows := s.byName[name]
	if rows == nil || len(rows[typ]) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range rows[typ] {
		sum += v
	}
	return sum / float64(len(rows[typ]))
}

// per combines f over the types that have samples of name, weighted by
// their share of the cycle and renormalised to those types: the value
// per request among the requests the measurement applies to.
func (s *samples) per(name string, f func(typ int) float64) float64 {
	rows := s.byName[name]
	if rows == nil {
		return 0
	}
	var sum, w float64
	for t := range rows {
		if len(rows[t]) > 0 {
			sum += s.weights[t] * f(t)
			w += s.weights[t]
		}
	}
	if w == 0 {
		return 0
	}
	return sum / w
}

func (s *samples) wmed(name string) float64 {
	return s.per(name, func(t int) float64 { return s.med(name, t) })
}

// total is Σ over all types of weight × median: the value per request of
// the whole cycle, types without samples contributing nothing.
func (s *samples) total(name string) float64 {
	var sum float64
	for t := range s.weights {
		sum += s.weights[t] * s.med(name, t)
	}
	return sum
}

func (s *samples) count(name string) int {
	n := 0
	for _, row := range s.byName[name] {
		n += len(row)
	}
	return n
}

// tracedRun produces the per-layer metrics: spans around the served
// handlers within real requests, then each request's input replayed into
// every layer's public entry point.
func tracedRun(ctx context.Context, s spec, cfg config) (*report, error) {
	tr := newTracer()
	e, err := setUp(ctx, s, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	inst := e.inst
	rep := newReport(s, cfg, inst)
	sm := newSamples(inst.typeWeights())
	window := func(share float64) time.Duration {
		return time.Duration(share * cfg.seconds * float64(time.Second))
	}
	count := func(r *request, res result) {
		rep.Attempted++
		if res.failure != "" {
			rep.fail(r, res.failure)
		}
	}

	sent := e.reqs
	_, _, offWall := e.runFor(ctx, window(untracedShare), count, nil)
	offRPS := float64(e.reqs-sent) / offWall.Seconds()

	before := e.dep.totals()
	routesBefore, err := e.dep.routeStats(ctx)
	if err != nil {
		return nil, err
	}
	sent = e.reqs
	tr.on.Store(true)
	cycles, _, onWall := e.runFor(ctx, window(tracedShare), func(r *request, res result) {
		count(r, res)
		if res.failure == "" && inst.shards > 0 && r.query.Mode == "stream" {
			sm.add("cluster.stream_rows_per_s", r.typ, float64(r.want.count)/res.latency.Seconds())
		}
	}, nil)
	tr.on.Store(false)
	onRPS := float64(e.reqs-sent) / onWall.Seconds()
	after := e.dep.totals()
	routesAfter, err := e.dep.routeStats(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.Cycles, rep.WindowSeconds = len(cycles), onWall.Seconds()
	served := tr.servedSamples(sm)

	lad := &ladder{tr: tr, inst: inst, sm: sm, rep: rep, req: e.reqs}
	if err := lad.run(ctx, window(ladderShare)); err != nil {
		return nil, err
	}
	if inst.shards > 0 {
		if err := singleEngine(ctx, inst, sm); err != nil {
			return nil, err
		}
	}
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	if err := microMetrics(inst, cfg, set); err != nil {
		return nil, err
	}

	// Most layer metrics are the per-type medians of one sample series.
	for _, m := range []struct{ name, unit string }{
		{"cq.parse_us", "us"}, {"td.select_us", "us"}, {"td.select_greedy_us", "us"}, {"td.enumerated_per_query", "count"},
		{"leapfrog.build_us", "us"}, {"leapfrog.count_ms", "ms"}, {"leapfrog.accesses_per_query", "count"},
		{"core.compile_us", "us"}, {"core.count_ms", "ms"}, {"core.aggregate_ms", "ms"}, {"core.eval_ms", "ms"},
		{"core.stream_rows_per_s", "1/s"}, {"core.cache_evictions_per_query", "count"}, {"core.cached_entries", "count"},
		{"core.accesses_per_query", "count"}, {"core.allocs_per_run", "count"},
		{"server.do_warm_us", "us"}, {"server.do_cold_us", "us"}, {"server.update_us", "us"},
		{"server.read_after_update_us", "us"}, {"server.allocs_per_do", "count"}, {"server.http_handler_us", "us"},
		{"server.http_client_us", "us"}, {"server.http_resp_bytes", "bytes"}, {"server.update_http_p50_ms", "ms"},
		{"cluster.handler_us", "us"}, {"cluster.shard_busy_us", "us"}, {"cluster.self_us", "us"},
		{"cluster.stream_rows_per_s", "1/s"},
	} {
		set(m.name, sm.wmed(m.name), m.unit)
	}

	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// planning is what a request of type t spends selecting and compiling:
	// all of it where the plan cache missed, none where it hit.
	planning := func(t int) float64 {
		return sm.mean("server.do_missed", t) * (sm.med("td.select_us", t) + sm.med("core.compile_us", t))
	}
	set("core.cache_hit_ratio", ratio(sm.total("core.cache_hits"), sm.total("core.cache_lookups")), "ratio")
	set("core.access_ratio_vs_lftj", ratio(sm.total("core.accesses_beside_lftj"), sm.total("leapfrog.accesses_per_query")), "ratio")
	set("server.do_self_us", sm.per("server.do_us", func(t int) float64 {
		return sm.med("server.do_us", t) - sm.med("cq.parse_us", t) - sm.med("core.run_us", t) - planning(t)
	}), "us")
	set("server.http_self_us", sm.per("server.http_handler_us", func(t int) float64 {
		return sm.med("server.http_handler_us", t) - sm.med("server.do_us", t)
	}), "us")
	set("server.update_http_p95_ms", served.updateP95, "ms")
	planHits, planMisses := float64(after.planHits-before.planHits), float64(after.planMisses-before.planMisses)
	set("server.plan_hit_ratio", ratio(planHits, planHits+planMisses), "ratio")

	// The trie registry and the coordinator's caches, over the traced
	// window; the cluster metrics are zero on single-engine workloads.
	hits, builds := float64(after.regHits-before.regHits), float64(after.regBuilds-before.regBuilds)
	set("trie.registry_hit_ratio", ratio(hits, hits+builds), "ratio")
	set("trie.registry_builds", builds, "count")
	set("trie.registry_patches", float64(after.regPatches-before.regPatches), "count")
	set("trie.registry_bytes", float64(after.regBytes), "bytes")
	set("cluster.shard_calls_per_req", ratio(float64(served.shardCalls), float64(served.frontCalls)), "count")
	routeHits, routeMisses := float64(routesAfter.Hits-routesBefore.Hits), float64(routesAfter.Misses-routesBefore.Misses)
	set("cluster.route_hit_ratio", ratio(routeHits, routeHits+routeMisses), "ratio")
	set("cluster.retries_per_req", ratio(float64(e.dep.failedTrips()), float64(e.reqs)), "count")
	var coord, single float64
	for i := range inst.cycle {
		if r := &inst.cycle[i]; r.constHead {
			coord += sm.med("http.client_us", r.typ)
			single += sm.med("single.client_us", r.typ)
		}
	}
	set("cluster.overhead_vs_single", ratio(coord, single), "ratio")

	// How a request's time splits, from medians per type: the join (core
	// over leapfrog over trie), planning, and how much of a cold Engine.Do
	// the separately replayed pieces explain.
	client := sm.total("http.client_us")
	var plans, pieces float64
	for t, w := range sm.weights {
		plans += w * (sm.med("cq.parse_us", t) + planning(t))
		pieces += w * (sm.med("cq.parse_us", t) + sm.med("td.select_us", t) + sm.med("core.compile_us", t) + sm.med("core.run_us", t))
	}
	set("bench.join_share_pct", 100*ratio(sm.total("core.run_us"), client), "%")
	set("bench.plan_share_pct", 100*ratio(plans, client), "%")
	set("bench.ladder_coverage_pct", 100*ratio(pieces, sm.total("server.do_cold_us")), "%")
	set("bench.trace_overhead_pct", 100*ratio(offRPS-onRPS, offRPS), "%")

	for _, name := range []string{"http.client_us", "server.do_us", "core.run_us", "leapfrog.count_ms"} {
		rep.Samples[name] = sm.count(name)
	}
	rep.Samples["spans"] = len(tr.spans)
	// Where each request type's time goes, for reading a result by hand.
	rep.PerType = map[string]map[string]float64{}
	for t, label := range inst.types {
		row := map[string]float64{}
		for _, name := range []string{
			"http.client_us", "server.http_handler_us", "server.do_us", "server.do_cold_us", "cq.parse_us",
			"td.select_us", "core.compile_us", "core.run_us", "server.update_us",
		} {
			if v := sm.med(name, t); v != 0 {
				row[name] = v
			}
		}
		rep.PerType[label] = row
	}
	rep.spans = tr.spans
	return rep, nil
}

// servedTotals is what the spans of the traced window add up to beyond
// the per-type samples.
type servedTotals struct {
	frontCalls, shardCalls int
	updateP95              float64
}

// servedSamples turns the traced window's spans into per-type samples:
// the client's round trip, the front handler inside it and the shard
// handlers inside that.
func (t *tracer) servedSamples(sm *samples) servedTotals {
	type group struct {
		client, front *span
		shards        []*span
	}
	groups := map[int64]*group{}
	for i := range t.spans {
		sp := &t.spans[i]
		g := groups[sp.Req]
		if g == nil {
			g = &group{}
			groups[sp.Req] = g
		}
		switch sp.Name {
		case spanClient:
			g.client = sp
		case spanShardHTTP:
			g.shards = append(g.shards, sp)
		default:
			g.front = sp
		}
	}
	var tot servedTotals
	var updates []float64
	for _, g := range groups {
		if g.client == nil || g.front == nil {
			continue
		}
		typ := g.client.typ
		tot.frontCalls++
		tot.shardCalls += len(g.shards)
		clientUS := float64(g.client.EndNS-g.client.StartNS) / 1e3
		handlerUS := float64(g.front.EndNS-g.front.StartNS) / 1e3
		if g.front.Type == "/update" {
			sm.add("server.update_http_p50_ms", typ, clientUS/1e3)
			updates = append(updates, clientUS/1e3)
			continue
		}
		sm.add("http.client_us", typ, clientUS)
		sm.add("server.http_handler_us", typ, handlerUS)
		sm.add("server.http_client_us", typ, clientUS-handlerUS)
		sm.add("server.http_resp_bytes", typ, float64(g.front.Bytes))
		if g.front.Name != spanClusterHTTP {
			continue
		}
		busy := float64(unionNS(g.shards)) / 1e3
		sm.add("cluster.handler_us", typ, handlerUS)
		sm.add("cluster.shard_busy_us", typ, busy)
		sm.add("cluster.self_us", typ, handlerUS-busy)
	}
	sort.Float64s(updates)
	tot.updateP95 = quantile(updates, 0.95)
	return tot
}

// unionNS is the time covered by at least one of the spans: shards work
// in parallel, so the coordinator waits for the union, not the sum.
func unionNS(spans []*span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var covered, end int64
	for i, sp := range spans {
		if i == 0 || sp.StartNS > end {
			covered += sp.EndNS - sp.StartNS
			end = sp.EndNS
		} else if sp.EndNS > end {
			covered += sp.EndNS - end
			end = sp.EndNS
		}
	}
	return covered
}

// ladder replays every request of the cycle, in order, into each layer's
// public entry point: Engine.Do on a warm engine and on one with the plan
// cache disabled, then cq.Parse, core.AutoSelect, td.SelectGreedy,
// core.NewPlanWith over the warm engine's registry, the plan's run in the
// request's mode, and vanilla LFTJ on the same order. Updates go through
// Engine.Update on both engines so the content stays in step.
type ladder struct {
	tr   *tracer
	inst *instance
	sm   *samples
	rep  *report
	req  int64

	warm, cold *server.Engine
	calls      uint64 // how many times the last timed call ran f
}

func (l *ladder) run(ctx context.Context, budget time.Duration) error {
	l.warm = server.NewEngine(l.inst.db, engineConfig)
	coldCfg := engineConfig
	coldCfg.PlanCache = -1
	l.cold = server.NewEngine(l.inst.db, coldCfg)
	defer l.warm.Close()
	defer l.cold.Close()

	static := true
	for _, r := range l.inst.cycle {
		static = static && !r.update
	}
	if static {
		// Fill the plan cache and the registry first. A cycle with updates
		// gets no such pass: its reads re-plan after every update anyway.
		if err := l.pass(ctx, false, false); err != nil {
			return err
		}
	}
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		if err := l.pass(ctx, true, first); err != nil {
			return err
		}
	}
	return nil
}

// A replayed call shorter than cheapCall is repeated and its median
// taken: the ladder interleaves calls that touch megabytes, so a single
// short call would be timed on cold caches the served loop never sees.
const (
	cheapCall = 100 * time.Microsecond
	repeats   = 5
)

func always() bool { return true }
func never() bool  { return false }

// once runs f as one replay span under parent.
func (l *ladder) once(name string, parent int64, r *request, f func()) (int64, time.Duration) {
	id := l.tr.nextID()
	start := time.Now()
	f()
	end := time.Now()
	l.tr.add(span{
		ID: id, Parent: parent, Req: l.req, Name: name, Type: l.inst.types[r.typ],
		StartNS: l.tr.since(start), EndNS: l.tr.since(end), Replay: true,
	})
	return id, end.Sub(start)
}

// timed runs f as a replay span and returns the first span's id and the
// call's duration; a cheap call is repeated (see cheapCall) if repeatable,
// asked after the first call, allows it.
func (l *ladder) timed(name string, parent int64, r *request, repeatable func() bool, f func()) (int64, time.Duration) {
	id, d := l.once(name, parent, r, f)
	l.calls = 1
	if d >= cheapCall || !repeatable() {
		return id, d
	}
	l.calls = repeats
	ds := []float64{float64(d)}
	for i := 1; i < repeats; i++ {
		_, d := l.once(name, parent, r, f)
		ds = append(ds, float64(d))
	}
	return id, time.Duration(median(ds))
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (l *ladder) pass(ctx context.Context, record, first bool) error {
	sm := l.sm
	if !record {
		sm = newSamples(l.sm.weights) // discarded
	}
	afterUpdate := false
	for i := range l.inst.cycle {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := &l.inst.cycle[i]
		l.req++
		if r.update {
			var err error
			_, d := l.timed("server.update", 0, r, never, func() { _, err = l.warm.Update(r.delta) })
			if err == nil {
				_, err = l.cold.Update(r.delta)
			}
			if err != nil {
				return fmt.Errorf("ladder update: %w", err)
			}
			sm.add("server.update_us", r.typ, us(d))
			afterUpdate = true
			continue
		}
		if err := l.query(sm, r, afterUpdate, first); err != nil {
			return fmt.Errorf("ladder %s: %w", r.body, err)
		}
		afterUpdate = false
	}
	return nil
}

// do runs one request on e the way the HTTP handler would and returns
// what the checks need.
func do(e *server.Engine, req server.Request) (got answer, planCached bool, err error) {
	if req.Mode == "stream" {
		req.Mode = ""
		sum, err := e.StreamCtx(context.Background(), req,
			func(order []string) { got.order = order },
			func(mu []int64) bool {
				got.tuples = append(got.tuples, append([]int64(nil), mu...))
				return true
			})
		got.count, got.truncated = sum.Count, sum.Truncated
		return got, false, err
	}
	resp, err := e.Do(req)
	if err != nil {
		return got, false, err
	}
	return answerOf(resp), resp.Stats.PlanCached, nil
}

func (l *ladder) query(sm *samples, r *request, afterUpdate, first bool) error {
	req, typ := r.query, r.typ
	var (
		err    error
		got    answer
		cached bool
	)
	m0 := mallocs()
	root, d := l.timed("server.do", 0, r, func() bool { return cached }, func() { got, cached, err = do(l.warm, req) })
	m1, doCalls := mallocs(), l.calls
	if err != nil {
		return err
	}
	l.rep.Attempted++
	if msg := r.want.check(r, &got); msg != "" {
		l.rep.fail(r, "Engine.Do: "+msg)
	}
	sm.add("server.do_us", typ, us(d))
	sm.add("server.allocs_per_do", typ, float64((m1-m0)/doCalls))
	missed := 1.0
	if cached {
		missed = 0
		sm.add("server.do_warm_us", typ, us(d))
	}
	if req.Mode != "stream" {
		sm.add("server.do_missed", typ, missed)
	}
	if afterUpdate {
		sm.add("server.read_after_update_us", typ, us(d))
	}
	_, d = l.timed("server.do_cold", 0, r, always, func() { _, _, err = do(l.cold, req) })
	if err != nil {
		return err
	}
	sm.add("server.do_cold_us", typ, us(d))

	var q *cq.Query
	_, d = l.timed("cq.parse", root, r, always, func() { q, err = cq.Parse(req.Query) })
	if err != nil {
		return err
	}
	sm.add("cq.parse_us", typ, us(d))

	db, reg := l.warm.DB(), l.warm.Registry()
	var (
		tree  *td.TD
		order []string
		k     stats.Counters
	)
	_, d = l.timed("td.select", root, r, always, func() {
		tree, order, err = core.AutoSelect(q, db, core.AutoOptions{Counters: &k, Tries: reg, BuildWorkers: 1})
	})
	if err != nil {
		return err
	}
	sm.add("td.select_us", typ, us(d))
	_, d = l.timed("td.select_greedy", root, r, always, func() { td.SelectGreedy(q, td.Options{}, td.GreedyConfig{}) })
	sm.add("td.select_greedy_us", typ, us(d))
	if first {
		sm.add("td.enumerated_per_query", typ, float64(len(td.Enumerate(q, td.Options{}))))
	}

	var plan *core.Plan
	_, d = l.timed("core.compile", root, r, always, func() { plan, err = core.NewPlanWith(q, db, tree, order, &k, reg) })
	if err != nil {
		return err
	}
	sm.add("core.compile_us", typ, us(d))

	var entries int
	var rows int64
	m0 = mallocs()
	run, d := l.timed("core.run", root, r, always, func() {
		k = stats.Counters{}
		entries, rows, err = runPlan(plan, req)
	})
	m1 = mallocs()
	if err != nil {
		return err
	}
	sm.add("core.run_us", typ, us(d))
	sm.add("core.allocs_per_run", typ, float64((m1-m0)/l.calls))
	switch req.Mode {
	case "", "count":
		sm.add("core.count_ms", typ, ms(d))
	case "eval":
		sm.add("core.eval_ms", typ, ms(d))
	case "aggregate":
		sm.add("core.aggregate_ms", typ, ms(d))
	case "stream":
		sm.add("core.stream_rows_per_s", typ, float64(rows)/d.Seconds())
	}
	sm.add("core.cache_hits", typ, float64(k.CacheHits))
	sm.add("core.cache_lookups", typ, float64(k.CacheHits+k.CacheMisses))
	sm.add("core.cache_evictions_per_query", typ, float64(k.CacheEvictions))
	sm.add("core.cached_entries", typ, float64(entries))
	sm.add("core.accesses_per_query", typ, float64(k.Total()))

	var lk stats.Counters
	var lf *leapfrog.Instance
	_, d = l.timed("leapfrog.build", run, r, always, func() { lf, err = leapfrog.BuildWith(q, db, order, &lk, reg) })
	if err != nil {
		return err
	}
	sm.add("leapfrog.build_us", typ, us(d))
	if (req.Mode == "" || req.Mode == "count") && r.want.count <= lftjMaxRows {
		var n int64
		_, d = l.timed("leapfrog.count", run, r, always, func() {
			lk = stats.Counters{}
			n = leapfrog.Count(lf)
		})
		if n != r.want.count {
			l.rep.fail(r, fmt.Sprintf("leapfrog.Count: %d, want %d", n, r.want.count))
		}
		sm.add("leapfrog.count_ms", typ, ms(d))
		sm.add("leapfrog.accesses_per_query", typ, float64(lk.Total()))
		sm.add("core.accesses_beside_lftj", typ, float64(k.Total()))
	}
	return nil
}

// runPlan executes plan the way Engine.Do (or, for streams, the HTTP
// handler) would for req, and returns the cached entries left behind and
// the rows streamed.
func runPlan(plan *core.Plan, req server.Request) (entries int, rows int64, err error) {
	pol := core.Policy{
		Capacity: req.CacheCapacity, SupportThreshold: req.CacheSupport, Disabled: req.NoCache,
		Workers: max(req.Workers, 1),
	}
	if req.CacheEviction == "lru" {
		pol.Eviction = core.EvictLRU
	}
	ctx := context.Background()
	switch req.Mode {
	case "", "count":
		res, err := plan.CountParallelCtx(ctx, pol)
		return res.CachedEntries, 0, err
	case "eval":
		res, err := plan.EvalParallelCtx(ctx, pol, func([]int64) bool { return true })
		return res.CachedEntries, 0, err
	case "stream":
		pol.Workers = 1
		_, err = plan.EvalStreamCtx(ctx, pol, 1, func([]int64) bool {
			rows++
			return req.Limit <= 0 || rows < int64(req.Limit)
		})
		return 0, rows, err
	case "aggregate":
		weight := func(_ int, v int64) float64 { return float64(v) }
		sr := core.SumProductSemiring()
		if req.Semiring == "min" {
			sr = core.TropicalSemiring()
		}
		_, err = core.AggregateParallelCtx(ctx, plan, pol, sr, weight)
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("no plan run for mode %q", req.Mode)
}

// singleEngine serves the union database from one engine and sends it the
// cycle, recording the latencies the coordinator's are compared with.
func singleEngine(ctx context.Context, inst *instance, sm *samples) error {
	dep, err := deploy(inst.db, 0, nil)
	if err != nil {
		return err
	}
	defer dep.close()
	cl := newClient(ctx, inst, dep.front.url, nil)
	defer cl.close()
	const cycles = warmCycles + 20
	for c := 0; c < cycles; c++ {
		for i := range inst.cycle {
			r := &inst.cycle[i]
			res := cl.do(r, 0)
			if res.failure != "" {
				return fmt.Errorf("single engine, request %s: %s", r.body, res.failure)
			}
			if c >= warmCycles {
				sm.add("single.client_us", r.typ, us(res.latency))
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes the traced runs' spans as JSON lines.
func writeSpans(path string, reports []*report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rep := range reports {
		for i := range rep.spans {
			line := struct {
				Workload string `json:"workload"`
				*span
			}{rep.Workload, &rep.spans[i]}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
