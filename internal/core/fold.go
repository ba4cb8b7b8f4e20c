package core

import (
	"context"

	"repro/internal/leapfrog"
	"repro/internal/stats"
)

// This file is the fold traversal: RCachedJoin of Fig. 2 over an
// arbitrary commutative semiring — the paper's §6 extension direction
// "general aggregate operators (e.g., based on the work of Joglekar et
// al. [10] and Khamis et al. [11])". The same multivalued dependency that
// justifies caching counts justifies caching any semiring aggregate of
// the subtree, because the per-variable weights factor along the
// decomposition. The count algorithm of Fig. 2 is this fold over
// (ℕ, +, ×) with unit weights; count.go runs it over int64 with the
// operators written inline, on the state, probe and store defined here.

// Semiring is a commutative semiring (T, Add, Mul, Zero, One). Add and
// Mul must be associative and commutative, Mul must distribute over Add,
// Zero must annihilate Mul and be the unit of Add, One the unit of Mul.
type Semiring[T any] struct {
	Zero T
	One  T
	Add  func(a, b T) T
	Mul  func(a, b T) T
	// IsZero optionally recognizes the annihilator so cached dead
	// subtrees prune the scan (nil disables the optimization).
	IsZero func(a T) bool
}

// times returns a ⊕ a ⊕ … ⊕ a (n terms; Zero for none) in O(log n)
// additions — what n unit-weight bindings add up to.
func (sr *Semiring[T]) times(a T, n int64) T {
	sum := sr.Zero
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			sum = sr.Add(sum, a)
		}
		a = sr.Add(a, a)
	}
	return sum
}

// CountSemiring is the counting semiring (ℕ, +, ×).
func CountSemiring() Semiring[int64] {
	return Semiring[int64]{
		Zero:   0,
		One:    1,
		Add:    func(a, b int64) int64 { return a + b },
		Mul:    func(a, b int64) int64 { return a * b },
		IsZero: func(a int64) bool { return a == 0 },
	}
}

// SumProductSemiring is (ℝ, +, ×) over float64 weights.
func SumProductSemiring() Semiring[float64] {
	return Semiring[float64]{
		Zero:   0,
		One:    1,
		Add:    func(a, b float64) float64 { return a + b },
		Mul:    func(a, b float64) float64 { return a * b },
		IsZero: func(a float64) bool { return a == 0 },
	}
}

// TropicalSemiring is (ℝ∪{+∞}, min, +): Aggregate computes the minimum
// total weight over all result tuples (e.g., shortest witness).
func TropicalSemiring() Semiring[float64] {
	const inf = 1e300
	return Semiring[float64]{
		Zero: inf,
		One:  0,
		Add: func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		},
		Mul:    func(a, b float64) float64 { return a + b },
		IsZero: func(a float64) bool { return a >= inf },
	}
}

// VarWeight assigns a semiring weight to variable depth d taking value v.
// The aggregate computed is ⊕ over all result tuples of ⊗ over depths of
// the weights — the FAQ/AJAR form restricted to per-variable factors.
// Since a weight reads one depth, the fold sums a bag's independent tail
// (the deepest level among them) once — ⊕ over its bindings of their
// weights' product — and runs the rest of the join once with that sum in
// its factor, as the count executor counts it. A nil VarWeight weighs
// every assignment with One: the fold then makes no weight call at all.
type VarWeight[T any] func(d int, v int64) T

// UnitWeight is the nil VarWeight at sr's type: every assignment weighs
// One, making Aggregate over the counting semiring coincide with Count.
func UnitWeight[T any](Semiring[T]) VarWeight[T] { return nil }

// Aggregate runs cached trie-join aggregation over the plan: it returns
//
//	⊕_{µ ∈ q(D)} ⊗_{d} w(d, µ(x_d))
//
// using the same adhesion caches as Count — cached entries hold the
// subtree's aggregate for the adhesion assignment. With CountSemiring
// and UnitWeight this is exactly CachedTJCount. It is
// AggregateParallelCtx on one worker, never cancelled.
func Aggregate[T any](p *Plan, policy Policy, sr Semiring[T], w VarWeight[T]) T {
	policy.Workers = 1
	t, _ := AggregateParallelCtx(context.Background(), p, policy, sr, w)
	return t
}

// AggregateParallelCtx is Aggregate sharded over policy.Workers
// goroutines and cancelled like CountParallelCtx (it returns sr.Zero
// and ctx's error when ctx trips). The fold regroups ⊕ and ⊗ by
// distributivity — a cached subtree's or a bag's tail's aggregate enters
// the prefix's product once, and the ⊕-fold is regrouped by shard — so
// the result is bit-identical at every worker count and policy whenever
// both are exact on the weights (integer arithmetic; min-plus over
// integer-valued weights — hence CountSemiring, and TropicalSemiring on
// such weights). For floating-point sums (SumProductSemiring) the result
// is deterministic for a fixed worker count and policy but may differ
// across them by the usual rounding error. (A free function, not a Plan
// method, because Go methods cannot introduce type parameters.)
func AggregateParallelCtx[T any](ctx context.Context, p *Plan, policy Policy, sr Semiring[T], w VarWeight[T]) (T, error) {
	total, _, err := fold(ctx, p, policy, sr, w, nil)
	return total, err
}

// fold drives the fold traversal: one executor per worker over its
// shard of the root domain, the workers' totals ⊕-folded and their
// tallies merged in worker order. cm, when non-nil, is the cache
// manager the (single) worker reuses instead of a pooled one.
func fold[T any](ctx context.Context, p *Plan, policy Policy, sr Semiring[T], w VarWeight[T], cm *manager[T]) (T, tally, error) {
	keys, workers, err := p.shards(ctx, policy.Workers)
	if workers == 0 {
		return sr.Zero, tally{}, err
	}
	var (
		total T
		t     tally
	)
	if workers == 1 {
		e := newFoldExec(ctx, p, policy, sr, w, cm, shard{}, p.counters)
		e.rjoin(0, sr.One)
		total, t = e.total, e.finish()
	} else {
		totals := make([]T, workers)
		parts := make([]tally, workers)
		leapfrog.RunSharded(workers, p.counters, func(i int, wc *stats.Counters) {
			e := newFoldExec(ctx, p, policy, sr, w, nil, shard{keys, i, workers}, wc)
			e.rjoin(0, sr.One)
			totals[i], parts[i] = e.total, e.finish()
		})
		total = sr.Zero
		for i := range totals {
			total = sr.Add(total, totals[i])
			t.add(parts[i])
		}
	}
	if t.err != nil {
		return sr.Zero, tally{}, t.err
	}
	return total, t, nil
}

// foldState is one worker's state under either fold executor — the
// semiring fold below and the count executor: the worker, the per-bag
// intermediates and the running total.
type foldState[T any] struct {
	worker[T]
	intrmd []T
	total  T
}

// newFoldState builds a worker's fold state with caches as newWorker
// takes them and the total at zero.
func newFoldState[T any](ctx context.Context, p *Plan, policy Policy, cm *manager[T], sh shard, wc *stats.Counters, zero T) foldState[T] {
	return foldState[T]{newWorker(ctx, p, policy, cm, nil, sh, wc), make([]T, p.numNodes), zero}
}

// probe is lines 6-12 of Fig. 2: bag v is entered from a different bag
// and its adhesion is fully assigned (strong compatibility), so its
// cache is probed with the adhesion assignment. A hit returns the cached
// aggregate; a miss returns the slot store fills.
func (e *foldState[T]) probe(v int) (val T, slot int32, hit bool) {
	var k Key
	e.plan.keyAt(v, e.mu, &k)
	return e.cm.lookup(v, &k)
}

// store is lines 20-22: about to leave bag v upward, its aggregate goes
// into the slot its probe missed if the policy agrees. A cancelled scan
// left intrmd[v] partial — never cache it.
func (e *foldState[T]) store(v int, slot int32) {
	if e.cancel.Err() == nil && e.cm.shouldCache(v, slot) {
		e.cm.store(v, slot, e.intrmd[v])
	}
}

// foldExec is one worker's semiring fold: the fold state, the semiring
// and the weights.
type foldExec[T any] struct {
	foldState[T]
	sr Semiring[T]
	w  VarWeight[T] // nil: unit weights
}

// newFoldExec builds a worker's semiring fold on newFoldState.
func newFoldExec[T any](ctx context.Context, p *Plan, policy Policy, sr Semiring[T], w VarWeight[T], cm *manager[T], sh shard, wc *stats.Counters) foldExec[T] {
	return foldExec[T]{newFoldState(ctx, p, policy, cm, sh, wc, sr.Zero), sr, w}
}

// rjoin is RCachedJoin(d, f) of Fig. 2 (0-based depths). f aggregates the
// weights of the assigned prefix, the cached factors of skipped subtrees
// and the sums of counted tails; every arrival at depth n ⊕-adds f to the
// total, so over CountSemiring with caching off (f == 1 above the leaf)
// the procedure is exactly RJoin of Fig. 1.
func (e *foldExec[T]) rjoin(d int, f T) {
	p, sr := e.plan, &e.sr
	if d == p.numVars {
		e.total = sr.Add(e.total, f)
		return
	}
	v := p.ownerOf[d]
	// Caching applies only when entering a cacheable bag; bags whose
	// adhesion is wider than MaxKeyDim run plain LFTJ (cf. §4 footnote on
	// wide relations).
	entering := e.cm != nil && p.is(d, bagFirst) && v != p.root && p.cacheable[v]
	var slot int32 // where the missed adhesion assignment's result goes
	if p.is(d, bagFirst) {
		e.intrmd[v] = sr.Zero
	}
	if entering {
		val, ref, hit := e.probe(v)
		slot = ref
		if hit {
			// Skip past the subtree interval, multiplying the factor. A
			// cached zero means the subtree cannot match this adhesion
			// assignment at all, so the whole prefix is dead — prune
			// rather than carry a zero factor as Fig. 2 literally would.
			e.intrmd[v] = val
			if sr.IsZero == nil || !sr.IsZero(val) {
				e.rjoin(p.subtreeEnd[v]+1, sr.Mul(f, val))
			}
			return
		}
	}

	// Lines 13-19: the ordinary trie-join scan of x_d. A sharded worker's
	// depth 0 seeks its own root values instead of advancing with Next().
	seek := d == 0 && e.keys != nil
	if !seek && (d == p.numVars-1 || e.cm != nil && p.is(d, tailFirst)) {
		// The bag's independent tail, depths d..L, as the count executor
		// runs it: no depth after L reads its bindings b, so by
		// distributivity the rest of the join runs once with
		// t = ⊕_b ⊗_{d..L} w(·, b) in its factor. The deepest depth is
		// always such a tail, so the leaf drains a block at a time.
		last := p.lastVar[v]
		if n, t := e.tail(d, last); n > 0 {
			e.rjoin(last+1, sr.Mul(f, t))
			e.settle(v, sr.Mul(e.weights(p.firstVar[v], d), t))
		}
	} else {
		frog, ok := e.run.OpenDepth(d)
		for i := e.start; ok && !e.cancel.Poll(); i += e.stride {
			var a int64
			if !seek {
				a = frog.Key()
			} else if i < len(e.keys) && frog.SeekGE(e.keys[i]) {
				a = e.keys[i]
			} else {
				break
			}
			e.mu[d] = a
			e.rjoin(d+1, sr.Mul(f, e.weights(d, d+1)))
			if p.is(d, bagLast) {
				// Lines 16-18: the bag's weights ⊗ its children's.
				e.settle(v, e.weights(p.firstVar[v], d+1))
			}
			if !seek {
				ok = frog.Next()
			}
		}
		e.run.CloseDepth(d)
	}

	if entering {
		e.store(v, slot)
	}
}

// weights is One ⊗ w(from, µ[from]) ⊗ … ⊗ w(to-1, µ[to-1]): the weight
// of the bag's depths in [from, to) under the current assignment.
func (e *foldExec[T]) weights(from, to int) T {
	prod := e.sr.One
	for d := from; d < to && e.w != nil; d++ {
		prod = e.sr.Mul(prod, e.w(d, e.mu[d]))
	}
	return prod
}

// settle closes bindings of bag v's depths weighing prod: it ⊕-adds prod
// ⊗ the children's aggregates to v's.
func (e *foldExec[T]) settle(v int, prod T) {
	sr := &e.sr
	for _, c := range e.plan.children[v] {
		if prod = sr.Mul(prod, e.intrmd[c]); sr.IsZero != nil && sr.IsZero(prod) {
			break
		}
	}
	e.intrmd[v] = sr.Add(e.intrmd[v], prod)
}

// tail is worker.countTail with weights: it returns the n bindings b of
// depths d..last under the assignment above d and t = ⊕_b ⊗_{d..last}
// w(·, b), charging what countTail charges. Unit weights make t the
// n-fold sum of One, formed in O(log n) additions.
func (e *foldExec[T]) tail(d, last int) (n int64, t T) {
	sr := &e.sr
	if e.w == nil {
		n = e.countTail(d, last)
		return n, sr.times(sr.One, n)
	}
	t = sr.Zero
	if d == last {
		block := e.block[:leafLen]
		frog, k := e.run.OpenLeaf(d, block)
		for k > 0 && !e.cancel.Poll() {
			n += int64(k)
			for _, a := range block[:k] {
				t = sr.Add(t, e.w(d, a))
			}
			if frog.AtEnd() {
				break
			}
			k = frog.NextBatch(block)
		}
	} else {
		frog, ok := e.run.OpenDepth(d)
		for ok && !e.cancel.Poll() {
			a := frog.Key()
			e.mu[d] = a
			m, u := e.tail(d+1, last)
			n, t = n+m, sr.Add(t, sr.Mul(e.w(d, a), u))
			ok = frog.Next()
		}
	}
	e.run.CloseDepth(d)
	return n, t
}
