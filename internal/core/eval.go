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
	return p.EvalLimitCtx(ctx, policy, 0, emit)
}

// EvalLimitCtx is EvalParallelCtx that emits only the first limit tuples
// (limit <= 0: every tuple) and counts the rest. Once the consumer holds
// limit rows and the scan finds one more, the run stops emitting and
// stops building factorized sets, and finishes as CachedTJCount does: a
// leaf block adds its length, a cache hit on bag v enters the depths
// after v's subtree once and multiplies their count by the entry's, and
// a bag it leaves stores its count. Result.Count is then |q(D)|, as
// CountParallelCtx reports it. A run that finds no more than limit
// tuples is EvalParallelCtx, charge for charge. On more than one worker
// each worker switches after its own first limit rows — the merged
// first limit rows come only from those — and Count is the workers' sum.
func (p *Plan) EvalLimitCtx(ctx context.Context, policy Policy, limit int, emit func(mu []int64) bool) (EvalResult, error) {
	keys, workers, err := p.shards(ctx, policy.Workers)
	if workers == 0 {
		return EvalResult{}, err
	}
	if workers > 1 {
		return p.evalSharded(ctx, policy, limit, keys, workers, emit)
	}
	e := newEvalExec(ctx, p, policy, limit, shard{}, p.counters, emit)
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
// far smaller. Decompress with ExpandFactorized.
func (p *Plan) EvalFactorized(policy Policy) factorized.Set {
	if p.inst.Empty() {
		return nil
	}
	e := newEvalExec(context.Background(), p, policy, 0, shard{}, p.counters, func([]int64) bool { return true })
	e.collectRoot = true
	e.rjoin(0, 1)
	e.finish()
	return e.bags[p.root].set
}

// ExpandFactorized enumerates the tuples a factorized result produced by
// EvalFactorized represents, invoking emit with assignments aligned with
// Plan.Order (reused slice; copy to retain). Returning false stops.
func (p *Plan) ExpandFactorized(s factorized.Set, emit func(mu []int64) bool) {
	if len(s) == 0 {
		return
	}
	e := newEvalExec(context.Background(), p, Policy{Disabled: true}, 0, shard{}, p.counters, emit)
	e.expandSet(p.root, s, func() bool { return emit(e.mu) })
	e.finish()
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

// evalExec is one worker's enumeration: the worker, whose caches hold
// factorized subtree results, the per-bag state and the consumer.
type evalExec struct {
	worker[evalEntry]
	ctrs        *stats.Counters // this execution's sink (worker-local in parallel runs)
	bags        []bagState      // per bag, in the current iteration
	collectRoot bool            // materialize the whole result as a factorized set
	enter       func()          // sharded runs: called before each root key's subtree is scanned
	emit        func([]int64) bool
	emitted     int64
	limit       int64 // emit at most this many tuples; -1: no limit
	counting    bool  // past the limit: the rest of the run counts
	counted     int64 // tuples found while counting
}

// newEvalExec builds a worker's executor over shard sh, on pooled caches,
// emitting the first limit tuples (limit <= 0: all) to emit, accounting
// into wc. It returns the executor by value so that a run keeps it on its
// own stack.
func newEvalExec(ctx context.Context, p *Plan, policy Policy, limit int, sh shard, wc *stats.Counters, emit func([]int64) bool) evalExec {
	e := evalExec{
		worker: newWorker(ctx, p, policy, nil, entryCost, sh, wc),
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
// executor: the product of the cached counts of the subtrees skipped on
// the way down, 1 wherever the run emits. It returns false when the
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
	entering := e.cm != nil && p.bagFirst[d] && v != p.root && p.cacheable[v]
	var slot int32 // where the missed adhesion assignment's entry goes
	b := &e.bags[v]
	if p.bagFirst[d] {
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

	// The trie-join scan of x_d. A sharded worker's depth 0 seeks its own
	// root values instead of advancing with Next().
	seek := d == 0 && e.keys != nil
	cont := true
	if d == p.numVars-1 && !seek {
		// The leaf: a block of matches at a time feeds the per-tuple
		// epilogue (emission, factorized collection) until the run
		// counts, and then adds its length.
		// Runner.OpenLeaf and Leapfrog.NextBatch charge what the scalar
		// Key/Next sequence would, so a completed scan accounts exactly as
		// the loop below; a consumer that stops mid-block has read ahead
		// to the block's end.
		block := e.block[:leafLen]
		frog, n := e.run.OpenLeaf(d, block)
		for n > 0 && !e.cancel.Poll() {
			j := 0
			for ; j < n && cont && !e.counting; j++ {
				e.mu[d] = block[j]
				if cont = e.rjoin(d+1, f); cont {
					e.tally(v)
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
			cont = e.rjoin(d+1, f)
			if p.bagLast[d] && cont {
				e.tally(v)
			}
			if cont && !seek {
				ok = frog.Next()
			}
		}
	}
	e.run.CloseDepth(d)

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

// tally closes one assignment of bag v's owned variables: it adds the
// tuples the children's results make under it to v's count and, while v
// collects, records it as a factorized entry.
func (e *evalExec) tally(v int) {
	prod := int64(1)
	for _, c := range e.plan.children[v] {
		if prod *= e.bags[c].n; prod == 0 {
			// Combinations with an empty child set represent zero tuples.
			return
		}
	}
	b := &e.bags[v]
	b.n += prod
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
