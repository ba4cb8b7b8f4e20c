package core

import (
	"context"

	"repro/internal/factorized"
	"repro/internal/leapfrog"
	"repro/internal/stats"
)

// EvalResult reports a cached evaluation.
type EvalResult struct {
	// Emitted is the number of result tuples delivered to the callback.
	Emitted int64
	// CachedEntries is the number of factorized entries resident in the
	// caches at the end of the run.
	CachedEntries int
	// Levels holds the per-depth intersection tallies (merged across
	// workers in parallel runs). Empty on cancelled runs.
	Levels []LevelStat
}

// Eval runs the evaluation variant of CachedTJCount (§3.4): the ordinary
// LFTJ scan, but cached bags store factorized representations of their
// subtree's assignments, and a cache hit expands the cached set in place
// of the subtree's scan. emit receives the full assignment indexed by
// depth (aligned with Plan.Order), in the lexicographic order of
// Plan.Order under every policy: the sequence a no-cache scan emits. The
// slice is reused, so emit must copy to retain. Returning false stops
// the enumeration. It is EvalParallelCtx on one worker, never cancelled.
func (p *Plan) Eval(policy Policy, emit func(mu []int64) bool) EvalResult {
	policy.Workers = 1
	res, _ := p.EvalParallelCtx(context.Background(), policy, emit)
	return res
}

// EvalParallelCtx is Eval sharded over policy.Workers goroutines (0: one
// per core; 1: the sequential scan, which streams tuples to emit as it
// finds them and reuses the emitted slice). More workers run evalSharded
// (stream.go) under the caller's policy, per-worker caches included, and
// the merged stream is the sequential one row for row, whatever the
// worker count and cache policy. On the sharded path the emitted slices
// are freshly allocated and may be retained by the callback, at most
// workers × streamChanDepth × blockLen rows (plus the block each worker
// is filling) are held between the scans and emit, and an emit
// returning false cancels the producers instead of finishing the join.
//
// Cancellation is cooperative, as in CountParallelCtx. When ctx trips,
// the stream ends early on every path: tuples already emitted stand,
// Emitted counts them, ctx's error is returned and nothing is cached
// from the cancelled scan.
func (p *Plan) EvalParallelCtx(ctx context.Context, policy Policy, emit func(mu []int64) bool) (EvalResult, error) {
	keys, workers, err := p.shards(ctx, policy.Workers)
	if workers == 0 {
		return EvalResult{}, err
	}
	if workers > 1 {
		return p.evalSharded(ctx, policy, keys, workers, emit)
	}
	e := newEvalExec(ctx, p, policy, shard{}, p.counters, emit)
	e.rjoin(0)
	t := e.finish()
	if t.err != nil {
		return EvalResult{Emitted: e.emitted}, t.err
	}
	return EvalResult{Emitted: e.emitted, CachedEntries: t.entries, Levels: t.levels}, nil
}

// EvalFactorized materializes the entire result as a factorized
// (d-)representation rooted at the plan's root bag (§3.4: the result may
// "constitute a factorized representation that may be decomposed upon
// need"). Cache hits link shared sub-sets, so heavily reused subtrees are
// stored once; Set.Count() equals |q(D)| while Set.NumEntries() is often
// far smaller. Decompress with ExpandFactorized.
func (p *Plan) EvalFactorized(policy Policy) factorized.Set {
	if p.inst.Empty() {
		return nil
	}
	e := newEvalExec(context.Background(), p, policy, shard{}, p.counters, func([]int64) bool { return true })
	e.collectRoot = true
	e.rjoin(0)
	e.finish()
	return e.sets[p.root]
}

// ExpandFactorized enumerates the tuples a factorized result produced by
// EvalFactorized represents, invoking emit with assignments aligned with
// Plan.Order (reused slice; copy to retain). Returning false stops.
func (p *Plan) ExpandFactorized(s factorized.Set, emit func(mu []int64) bool) {
	if len(s) == 0 {
		return
	}
	e := newEvalExec(context.Background(), p, Policy{Disabled: true}, shard{}, p.counters, emit)
	e.expandSet(p.root, s, func() bool { return emit(e.mu) })
	e.finish()
}

// evalExec is one worker's enumeration: a runner over the plan's tries,
// the caches of factorized subtree results, and the consumer.
type evalExec struct {
	shard
	plan        *Plan
	run         *leapfrog.Runner
	ctrs        *stats.Counters // this execution's sink (worker-local in parallel runs)
	mu          []int64
	sets        []factorized.Set         // per bag: the set built/reused in the current iteration
	collect     []bool                   // per bag: building its factorized set right now
	intent      []bool                   // per bag: will store to cache on exit
	collectRoot bool                     // materialize the whole result as a factorized set
	cm          *manager[factorized.Set] // pooled; nil: nothing is cached (acquireManager)
	cancel      *leapfrog.Canceler       // nil never cancels
	enter       func()                   // sharded runs: called before each root key's subtree is scanned
	emit        func([]int64) bool
	emitted     int64
	block       [blockLen]int64 // the deepest level's keys, a block at a time
}

// newEvalExec builds a worker's executor over shard sh, accounting into
// wc and delivering to emit. It returns the executor by value so that a
// run keeps it on its own stack.
func newEvalExec(ctx context.Context, p *Plan, policy Policy, sh shard, wc *stats.Counters, emit func([]int64) bool) evalExec {
	e := evalExec{
		shard:   sh,
		plan:    p,
		run:     leapfrog.NewRunnerCounters(p.inst, wc),
		ctrs:    wc,
		sets:    make([]factorized.Set, p.numNodes),
		collect: make([]bool, p.numNodes),
		intent:  make([]bool, p.numNodes),
		cm:      acquireManager(policy, p, wc, setCost),
		cancel:  leapfrog.NewCanceler(ctx),
		emit:    emit,
	}
	e.mu = e.run.Assignment()
	return e
}

// setCost is what a cached factorized set occupies of Policy.Capacity:
// its entries count individually.
func setCost(s factorized.Set) int { return len(s) }

// finish closes the run (see the driver's finish) and hands the caches
// back to the pool, whether the scan completed, stopped or was cancelled.
func (e *evalExec) finish() tally {
	t := finish(e.run, e.cm.Entries(), e.cancel)
	e.cm.release()
	return t
}

// rjoin is the fold's RCachedJoin with factorized sets as the
// intermediate (§3.4). It returns false when the consumer stopped the
// enumeration.
func (e *evalExec) rjoin(d int) bool {
	p := e.plan
	if d == p.numVars {
		e.emitted++
		return e.emit(e.mu)
	}
	v := p.ownerOf[d]
	entering := e.cm != nil && p.bagFirst[d] && v != p.root && p.cacheable[v]
	var slot int32 // where the missed adhesion assignment's set goes
	if p.bagFirst[d] {
		e.intent[v] = false
		e.collect[v] = (p.parent[v] != -1 && e.collect[p.parent[v]]) ||
			(v == p.root && e.collectRoot)
		e.sets[v] = nil
	}
	if entering {
		var k Key
		p.keyAt(v, e.mu, &k)
		set, ref, ok := e.cm.lookup(v, &k)
		slot = ref
		if ok {
			e.sets[v] = set
			if len(set) == 0 {
				// Cached empty subtree: the prefix is dead.
				return true
			}
			// The cached rows are the outer loop and the depths after
			// v's subtree the inner one: those depths see v's rows only
			// through the adhesion, so the emitted sequence is the
			// scan's, and the later bags hit their own caches.
			return e.expandSet(v, set, func() bool { return e.rjoin(p.subtreeEnd[v] + 1) })
		}
		if e.cm.shouldCache(v, slot) {
			// Decide the caching intent on entry: evaluation must build
			// the factorized set during the scan to have something to
			// store on exit (§3.4: intrmd is maintained only when needed).
			e.intent[v] = true
			e.collect[v] = true
		}
	}

	// The trie-join scan of x_d. A sharded worker's depth 0 seeks its own
	// root values instead of advancing with Next().
	seek := d == 0 && e.keys != nil
	cont := true
	if d == p.numVars-1 && !seek {
		// The leaf: a block of matches at a time feeds the per-tuple
		// epilogue (emission, factorized collection).
		// Runner.OpenLeaf and Leapfrog.NextBatch charge what the scalar
		// Key/Next sequence would, so a completed scan accounts exactly as
		// the loop below; a consumer that stops mid-block has read ahead
		// to the block's end.
		block := e.block[:leafLen]
		frog, n := e.run.OpenLeaf(d, block)
		for n > 0 && !e.cancel.Poll() {
			for j := 0; j < n && cont; j++ {
				e.mu[d] = block[j]
				cont = e.rjoin(d + 1)
				if p.bagLast[d] && e.collect[v] && cont {
					e.appendEntry(v)
				}
			}
			if !cont || frog.AtEnd() {
				break
			}
			n = frog.NextBatch(block)
		}
	} else {
		frog, ok := e.run.OpenDepth(d)
		for i := e.start; ok && cont && !e.cancel.Poll(); i += e.stride {
			if !seek {
				e.mu[d] = frog.Key()
			} else if i < len(e.keys) && frog.SeekGE(e.keys[i]) {
				e.enter()
				e.mu[d] = e.keys[i]
			} else {
				break
			}
			cont = e.rjoin(d + 1)
			if p.bagLast[d] && e.collect[v] && cont {
				e.appendEntry(v)
			}
			if cont && !seek {
				ok = frog.Next()
			}
		}
	}
	e.run.CloseDepth(d)

	// A cancelled scan left sets[v] partial — never cache it.
	if entering && e.intent[v] && cont && e.cancel.Err() == nil {
		e.cm.store(v, slot, e.sets[v])
	}
	return cont
}

// appendEntry records one assignment of bag v's owned variables together
// with the children's factorized sets. Combinations with an empty child
// set represent zero tuples and are skipped.
func (e *evalExec) appendEntry(v int) {
	p := e.plan
	var children []factorized.Set
	if n := len(p.children[v]); n > 0 {
		children = make([]factorized.Set, n)
		for i, c := range p.children[v] {
			s := e.sets[c]
			if len(s) == 0 {
				return
			}
			children[i] = s
		}
	}
	vals := make([]int64, p.lastVar[v]-p.firstVar[v]+1)
	copy(vals, e.mu[p.firstVar[v]:p.lastVar[v]+1])
	if c := e.ctrs; c != nil {
		c.TupleAccesses += int64(len(vals))
	}
	e.sets[v] = append(e.sets[v], &factorized.Entry{Vals: vals, Children: children})
}

// expandSet enumerates the assignments a factorized set represents,
// writing them into the buffer at bag v's depth interval. It polls the
// canceler too: a cache hit emits whole subtrees without advancing any
// iterator, so without a check here a cancelled eval could keep
// expanding a huge memoized set long after the scan loops stopped.
func (e *evalExec) expandSet(v int, s factorized.Set, then func() bool) bool {
	p := e.plan
	for _, entry := range s {
		if e.cancel.Poll() {
			return false
		}
		copy(e.mu[p.firstVar[v]:], entry.Vals)
		if c := e.ctrs; c != nil {
			c.TupleAccesses += int64(len(entry.Vals))
		}
		if !e.expandChildren(v, entry, 0, then) {
			return false
		}
	}
	return true
}

func (e *evalExec) expandChildren(v int, entry *factorized.Entry, j int, then func() bool) bool {
	if j == len(entry.Children) {
		return then()
	}
	c := e.plan.children[v][j]
	return e.expandSet(c, entry.Children[j], func() bool {
		return e.expandChildren(v, entry, j+1, then)
	})
}
