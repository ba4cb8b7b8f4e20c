package core

import (
	"context"

	"repro/internal/factorized"
	"repro/internal/stats"
)

// EvalResult reports a cached evaluation.
type EvalResult struct {
	// Emitted is the number of result tuples delivered to the callback.
	Emitted int64
	// Count is the number of result tuples the run found, emitted or
	// counted past a limit: |q(D)| for a completed run. A run that emit
	// stopped or ctx cancelled reports what it had found by then.
	Count int64
	// CachedEntries is the number of factorized entries resident in the
	// caches at the end of the run.
	CachedEntries int
}

// Eval runs the evaluation variant of CachedTJCount (§3.4): the ordinary
// LFTJ scan, but cached bags store factorized representations of their
// subtree's assignments, and a cache hit expands the cached set in place
// of the subtree's scan. emit receives the full assignment indexed by
// depth (aligned with Plan.Order), in the lexicographic order of
// Plan.Order under every policy: the sequence a no-cache scan emits. The
// slice is reused, so emit must copy to retain. Returning false stops
// the enumeration. It is EvalParallelCtx, never cancelled.
func (p *Plan) Eval(policy Policy, emit func(mu []int64) bool) EvalResult {
	res, _ := p.EvalParallelCtx(context.Background(), policy, emit)
	return res
}

// EvalParallelCtx is Eval under a context. An enumeration runs on one
// worker whatever policy.Workers says: the scan streams tuples to emit
// as it finds them, in one slice it reuses at every worker count (emit
// must copy to retain), and an emit returning false stops the scan. Only
// the folds shard (CountParallelCtx, AggregateParallelCtx).
//
// Cancellation is cooperative, as in CountParallelCtx. When ctx trips,
// the stream ends early: tuples already emitted stand, Emitted counts
// them, ctx's error is returned and nothing is cached from the cancelled
// scan.
func (p *Plan) EvalParallelCtx(ctx context.Context, policy Policy, emit func(mu []int64) bool) (EvalResult, error) {
	return p.EvalLimitCtx(ctx, policy, 0, emit)
}

// EvalStreamCtx is EvalParallelCtx; workers is ignored.
func (p *Plan) EvalStreamCtx(ctx context.Context, policy Policy, workers int, emit func(mu []int64) bool) (EvalResult, error) {
	return p.EvalParallelCtx(ctx, policy, emit)
}

// EvalLimitCtx is EvalParallelCtx that emits only the first limit tuples
// (limit <= 0: every tuple) and counts the rest. Once the consumer holds
// limit rows and the scan finds one more, the run stops emitting and
// stops building factorized sets, and finishes as CachedTJCount does: a
// leaf block adds its length, a cache hit on bag v enters the depths
// after v's subtree once and multiplies their count by the entry's, a
// bag's independent tail is counted and the depths after the bag run
// once (with caching on), and a bag it leaves stores its count.
// Result.Count is then |q(D)|, as CountParallelCtx reports it. A run that
// finds no more than limit tuples is EvalParallelCtx, charge for charge.
func (p *Plan) EvalLimitCtx(ctx context.Context, policy Policy, limit int, emit func(mu []int64) bool) (EvalResult, error) {
	if err := ctx.Err(); err != nil || p.inst.Empty() {
		return EvalResult{}, err
	}
	e := newEvalExec(ctx, p, policy, limit, p.counters, emit)
	e.rjoin(0, 1)
	t := e.finish()
	res := EvalResult{Emitted: e.emitted, Count: e.emitted + e.counted}
	if t.err != nil {
		return res, t.err
	}
	res.CachedEntries = t.entries
	return res, nil
}

// EvalFactorized materializes the entire result as a factorized
// (d-)representation rooted at the plan's root bag (§3.4: the result may
// "constitute a factorized representation that may be decomposed upon
// need"). Cache hits link shared sub-sets, so heavily reused subtrees are
// stored once; Set.Count() equals |q(D)| while Set.NumEntries() is often
// far smaller.
func (p *Plan) EvalFactorized(policy Policy) factorized.Set {
	if p.inst.Empty() {
		return nil
	}
	e := newEvalExec(context.Background(), p, policy, 0, p.counters, func([]int64) bool { return true })
	e.collectRoot = true
	e.rjoin(0, 1)
	e.finish()
	return e.bags[p.root].set
}

// evalEntry is an eval cache's value: a bag's factorized subtree result
// for one adhesion assignment and the number of tuples it represents.
// An entry the counting tail stores holds the count alone: only that
// run's counting tail can hit it.
type evalEntry struct {
	set factorized.Set
	n   int64
}

// entryCost is what a cached entry occupies of Policy.Capacity: a set's
// entries count individually, and the store charges an empty set or a
// count alone 1.
func entryCost(x evalEntry) int { return len(x.set) }

// bagState is one bag's part of the enumeration in its current
// iteration.
type bagState struct {
	set     factorized.Set // the set built or reused
	n       int64          // the tuples set represents, kept in both modes
	collect bool           // building set right now
	intent  bool           // will store to cache on exit
}

// evalExec is the enumeration: the worker, whose caches hold factorized
// subtree results, the per-bag state and the consumer.
type evalExec struct {
	worker[evalEntry]
	ctrs        *stats.Counters // this execution's sink
	bags        []bagState      // per bag, in the current iteration
	collectRoot bool            // materialize the whole result as a factorized set
	emit        func([]int64) bool
	emitted     int64
	limit       int64 // emit at most this many tuples; -1: no limit
	counting    bool  // past the limit: the rest of the run counts
	counted     int64 // tuples found while counting
}

// newEvalExec builds the executor over the whole root level, on pooled
// caches, emitting the first limit tuples (limit <= 0: all) to emit,
// accounting into wc. It returns the executor by value so that a run
// keeps it on its own stack.
func newEvalExec(ctx context.Context, p *Plan, policy Policy, limit int, wc *stats.Counters, emit func([]int64) bool) evalExec {
	e := evalExec{
		worker: newWorker(ctx, p, policy, nil, entryCost, shard{}, wc),
		ctrs:   wc,
		bags:   make([]bagState, p.numNodes),
		emit:   emit,
		limit:  -1,
	}
	if limit > 0 {
		e.limit = int64(limit)
	}
	return e
}

// rjoin is the fold's RCachedJoin with factorized sets as the
// intermediate (§3.4). f is the counting tail's factor, as in the count
// executor: the product of the cached counts of the subtrees skipped and
// the tails counted on the way down, 1 wherever the run emits. It returns false when the
// consumer stopped the enumeration.
func (e *evalExec) rjoin(d int, f int64) bool {
	p := e.plan
	if d == p.numVars {
		if e.emitted == e.limit {
			// The consumer holds its limit and the scan found one more:
			// from here on the run counts.
			e.counting = true
		}
		if e.counting {
			e.counted += f
			return true
		}
		e.emitted++
		return e.emit(e.mu)
	}
	v := p.ownerOf[d]
	entering := e.cm != nil && p.is(d, bagFirst) && v != p.root && p.cacheable[v]
	var slot int32 // where the missed adhesion assignment's entry goes
	b := &e.bags[v]
	if p.is(d, bagFirst) {
		*b = bagState{collect: !e.counting && ((p.parent[v] != -1 && e.bags[p.parent[v]].collect) ||
			(v == p.root && e.collectRoot))}
	}
	if entering {
		var k Key
		p.keyAt(v, e.mu, &k)
		ent, ref, ok := e.cm.lookup(v, &k)
		slot = ref
		if ok {
			b.set, b.n = ent.set, ent.n
			if ent.n == 0 {
				// Cached empty subtree: the prefix is dead.
				return true
			}
			if e.counting {
				// The depths after v's subtree see its rows only through
				// the adhesion: count them once, times the entry's count.
				return e.rjoin(p.subtreeEnd[v]+1, f*ent.n)
			}
			// The cached rows are the outer loop and the depths after
			// v's subtree the inner one: those depths see v's rows only
			// through the adhesion, so the emitted sequence is the
			// scan's, and the later bags hit their own caches. Should the
			// limit fall inside, the rest of the set is counted row by row.
			return e.expandSet(v, ent.set, func() bool { return e.rjoin(p.subtreeEnd[v]+1, 1) })
		}
		if e.cm.shouldCache(v, slot) {
			// Decide the caching intent on entry: evaluation must build
			// the factorized set during the scan to have something to
			// store on exit (§3.4: intrmd is maintained only when needed).
			b.intent = true
			b.collect = !e.counting
		}
	}

	// The trie-join scan of x_d.
	cont := true
	if e.counting && e.cm != nil && p.is(d, tailFirst) {
		// The bag's independent tail, counted as the count executor
		// counts it: the depths after its bag see none of its bindings.
		if n := e.countTail(d, p.lastVar[v]); n > 0 {
			cont = e.rjoin(p.lastVar[v]+1, f*n)
			e.tally(v, n)
		}
	} else if d == p.numVars-1 {
		// The leaf: a block of matches at a time feeds the per-tuple
		// epilogue (emission, factorized collection) until the run
		// counts, and then adds its length. Runner.OpenLeaf and
		// Leapfrog.NextBatch charge what the scalar Key/Next sequence
		// would; a consumer that stops mid-block has read ahead to the
		// block's end.
		block := e.block[:leafLen]
		frog, n := e.run.OpenLeaf(d, block)
		for n > 0 && !e.cancel.Poll() {
			j := 0
			for ; j < n && cont && !e.counting; j++ {
				e.mu[d] = block[j]
				if cont = e.rjoin(d+1, f); cont {
					e.tally(v, 1)
				}
			}
			if e.counting {
				// The leaf bag has no children: each match is one tuple.
				rest := int64(n - j)
				e.counted += f * rest
				b.n += rest
			}
			if !cont || frog.AtEnd() {
				break
			}
			n = frog.NextBatch(block)
		}
		e.run.CloseDepth(d)
	} else {
		frog, ok := e.run.OpenDepth(d)
		for ok && cont && !e.cancel.Poll() {
			e.mu[d] = frog.Key()
			cont = e.rjoin(d+1, f)
			if p.is(d, bagLast) && cont {
				e.tally(v, 1)
			}
			if cont {
				ok = frog.Next()
			}
		}
		e.run.CloseDepth(d)
	}

	// A cancelled scan left b partial — never cache it. A set the limit
	// cut short goes; its count stays.
	if entering && b.intent && cont && e.cancel.Err() == nil {
		ent := evalEntry{n: b.n}
		if !e.counting {
			ent.set = b.set
		}
		e.cm.store(v, slot, ent)
	}
	return cont
}

// tally closes n assignments of bag v's owned variables: it adds the
// tuples the children's results make under them to v's count and, while
// v collects, records the current one (n is then 1) as a factorized entry.
func (e *evalExec) tally(v int, n int64) {
	for _, c := range e.plan.children[v] {
		if n *= e.bags[c].n; n == 0 {
			// Combinations with an empty child set represent zero tuples.
			return
		}
	}
	b := &e.bags[v]
	b.n += n
	if b.collect && !e.counting {
		e.appendEntry(v)
	}
}

// appendEntry records one assignment of bag v's owned variables together
// with the children's factorized sets, none of them empty.
func (e *evalExec) appendEntry(v int) {
	p := e.plan
	var children []factorized.Set
	if n := len(p.children[v]); n > 0 {
		children = make([]factorized.Set, n)
		for i, c := range p.children[v] {
			children[i] = e.bags[c].set
		}
	}
	vals := make([]int64, p.lastVar[v]-p.firstVar[v]+1)
	copy(vals, e.mu[p.firstVar[v]:p.lastVar[v]+1])
	if c := e.ctrs; c != nil {
		c.TupleAccesses += int64(len(vals))
	}
	e.bags[v].set = append(e.bags[v].set, &factorized.Entry{Vals: vals, Children: children})
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
