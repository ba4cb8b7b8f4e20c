package leapfrog

import (
	"repro/internal/stats"
	"repro/internal/trie"
)

// Runner executes LFTJ over an Instance: TJCount of Fig. 1 and its
// evaluation twin. A Runner holds per-run iterator state; obtain one per
// execution (Count and Eval below do so). It is exported because CLFTJ
// (package core) drives the same machinery with cache hooks, through
// OpenDepth, OpenLeaf and CloseDepth: one trie.Leapfrog per depth, over
// the legs its atoms' iterators have at that depth. The runner's own
// Count and Eval are the scalar reference — sequential, uncancellable,
// one Frog Key/Next step per match, never entering trie's leapfrog
// kernel — that core's executor is checked against.
type Runner struct {
	inst  *Instance
	iters []*trie.Iterator // one per atom leg
	frogs []*Frog          // the scalar reference's, one per depth
	leaps []trie.Leapfrog  // the kernel's, one per depth
	legs  [][]*trie.Iterator
	mu    []int64         // current partial assignment, by depth
	c     *stats.Counters // the sink the iterators are bound to

	// attempts[d] counts OpenDepth entries at depth d; empties[d] counts
	// those whose k-way intersection held no value at all (Frog.Init
	// found no match). An "always empty" level (attempts > 0 and
	// empties == attempts) is the early-termination feedback signal: the
	// variable at that depth never extended any assignment, so an
	// adaptive re-plan can demote it (see td.GreedyConfig.Demote). Both
	// reset when a pooled runner is rebound.
	attempts []int64
	empties  []int64
}

// NewRunner prepares iterators and per-depth frogs for one execution
// over the instance, accounting into the instance's counters.
func NewRunner(inst *Instance) *Runner {
	return NewRunnerCounters(inst, inst.counters)
}

// NewRunnerCounters is NewRunner with an explicit accounting sink: every
// trie iterator the runner owns accounts into c instead of the shared
// instance counters. Parallel executions give each worker its own runner
// and a private Counters (merged after the workers join), so the
// immutable tries are shared while all mutable state — cursors, frogs,
// the assignment buffer, accounting — stays worker-local. c may be nil.
//
// Runners are drawn from a per-instance pool: a released runner (see
// Release) is rebound to c and handed back instead of allocating, so an
// instance's steady-state executions are allocation-free. A fresh
// runner is built when the pool is empty.
func NewRunnerCounters(inst *Instance, c *stats.Counters) *Runner {
	if pooled := inst.pool.Get(); pooled != nil {
		r := pooled.(*Runner)
		if r.c != c {
			r.c = c
			for _, it := range r.iters {
				it.SetCounters(c)
			}
		}
		// Restore the canonical leg order (frog searches permute the leg
		// slices in place), so a pooled runner charges exactly the
		// accounting a fresh one would.
		for d, legIdxs := range inst.legsAt {
			ls := r.legs[d]
			for j, li := range legIdxs {
				ls[j] = r.iters[li]
			}
			r.leaps[d].Reset()
		}
		for d := range r.attempts {
			r.attempts[d] = 0
			r.empties[d] = 0
		}
		return r
	}
	r := &Runner{
		inst:     inst,
		iters:    make([]*trie.Iterator, len(inst.atoms)),
		frogs:    make([]*Frog, inst.NumVars()),
		leaps:    make([]trie.Leapfrog, inst.NumVars()),
		legs:     make([][]*trie.Iterator, inst.NumVars()),
		mu:       make([]int64, inst.NumVars()),
		attempts: make([]int64, inst.NumVars()),
		empties:  make([]int64, inst.NumVars()),
		c:        c,
	}
	for i, leg := range inst.atoms {
		r.iters[i] = leg.Trie.NewIteratorCounters(c)
	}
	for d, legIdxs := range inst.legsAt {
		ls := make([]*trie.Iterator, len(legIdxs))
		for j, li := range legIdxs {
			ls[j] = r.iters[li]
		}
		r.legs[d] = ls
		r.frogs[d] = NewFrog(ls)
		r.leaps[d] = trie.NewLeapfrog(ls, inst.levelsAt[d])
	}
	return r
}

// Release flushes the runner's batched accounting and returns it to the
// instance's pool for reuse by a later execution ("close" in the
// iterator accounting contract). The runner must not be used after
// Release; holding one across executions is fine — it simply never
// rejoins the pool.
func (r *Runner) Release() {
	for _, it := range r.iters {
		it.Flush()
	}
	r.inst.pool.Put(r)
}

// Instance returns the instance the runner executes.
func (r *Runner) Instance() *Instance { return r.inst }

// Assignment returns the current partial assignment by depth; valid
// during callbacks.
func (r *Runner) Assignment() []int64 { return r.mu }

// OpenDepth opens all legs of depth d (descends each participating atom
// iterator into the level of variable order[d]) and returns depth d's
// kernel frog on its first match: one trie.Leapfrog call for the Opens
// and the first search. Callers must balance with CloseDepth. Each call
// is tallied in the per-depth level stats (see LevelStats); a false
// return means the intersection at d is empty under the current prefix.
func (r *Runner) OpenDepth(d int) (*trie.Leapfrog, bool) {
	f := &r.leaps[d]
	return f, r.tally(d, f.Open())
}

// OpenLeaf is OpenDepth for a depth whose matches the caller drains a
// block at a time with NextBatch — the deepest: it also fills dst, which
// must not be empty, with the first matches and returns how many.
// CloseDepth balances it, and the depth is tallied as OpenDepth tallies
// it.
func (r *Runner) OpenLeaf(d int, dst []int64) (*trie.Leapfrog, int) {
	f, ok := r.OpenDepth(d)
	if !ok {
		return f, 0
	}
	return f, f.NextBatch(dst)
}

// openScalar is OpenDepth through the scalar Open/Key/SeekGE sequence
// and depth d's Frog: the reference Count and Eval never enter the
// kernel.
func (r *Runner) openScalar(d int) (*Frog, bool) {
	for _, it := range r.legs[d] {
		it.Open()
	}
	f := r.frogs[d]
	return f, r.tally(d, f.Init())
}

// tally counts an entry of depth d whose intersection was empty unless ok.
func (r *Runner) tally(d int, ok bool) bool {
	r.attempts[d]++
	if !ok {
		r.empties[d]++
	}
	return ok
}

// LevelStats returns this runner's per-depth intersection tallies:
// attempts[d] OpenDepth entries at depth d, of which empties[d] found an
// empty intersection. Both slices are the runner's internal state — valid
// until Release, then reused; callers retaining them must copy. Depths the
// run never reached report zero attempts.
func (r *Runner) LevelStats() (attempts, empties []int64) {
	return r.attempts, r.empties
}

// CloseDepth ascends all legs of depth d, however it was opened.
func (r *Runner) CloseDepth(d int) { r.leaps[d].Close() }

// Count implements TJCount (Fig. 1): the number of tuples in q(D).
func (r *Runner) Count() int64 {
	if r.inst.empty {
		return 0
	}
	return r.countFrom(0)
}

func (r *Runner) countFrom(d int) int64 {
	if d == r.inst.NumVars() {
		return 1
	}
	f, ok := r.openScalar(d)
	var total int64
	for ok {
		r.mu[d] = f.Key()
		total += r.countFrom(d + 1)
		ok = f.Next()
	}
	r.CloseDepth(d)
	return total
}

// Eval enumerates q(D), invoking emit with the full assignment (indexed
// by depth; aligned with Instance.Order). The slice is reused across
// calls — emit must copy it to retain it. Returning false stops the
// enumeration early.
func (r *Runner) Eval(emit func(mu []int64) bool) {
	if r.inst.empty {
		return
	}
	r.evalFrom(0, emit)
}

func (r *Runner) evalFrom(d int, emit func([]int64) bool) bool {
	if d == r.inst.NumVars() {
		return emit(r.mu)
	}
	f, ok := r.openScalar(d)
	cont := true
	for ok && cont {
		r.mu[d] = f.Key()
		cont = r.evalFrom(d+1, emit)
		if cont {
			ok = f.Next()
		}
	}
	r.CloseDepth(d)
	return cont
}

// Count runs vanilla LFTJ count over the instance. Steady-state calls
// are allocation-free: the runner is drawn from and returned to the
// instance's pool.
func Count(inst *Instance) int64 {
	r := NewRunner(inst)
	n := r.Count()
	r.Release()
	return n
}

// Eval runs vanilla LFTJ evaluation over the instance.
func Eval(inst *Instance, emit func(mu []int64) bool) {
	r := NewRunner(inst)
	r.Eval(emit)
	r.Release()
}

// EvalTuples materializes the result in order-variable order; intended
// for tests and small results.
func EvalTuples(inst *Instance) [][]int64 {
	var out [][]int64
	Eval(inst, func(mu []int64) bool {
		out = append(out, append([]int64(nil), mu...))
		return true
	})
	return out
}
