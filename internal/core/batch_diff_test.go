package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/leapfrog"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/trie"
)

// blockLens are the block lengths the differential tests drive: 1 (the
// scalar Key/Next sequence through the leaf loop — the reference), tiny
// ones that straddle shard and block boundaries, 64, and blockLen, what
// every caller outside these tests runs.
var blockLens = []int{1, 2, 7, 64, blockLen}

// atLeafLen runs f with leaf scans and stream row groups n keys long.
func atLeafLen(n int, f func()) {
	defer func(old int) { leafLen = old }(leafLen)
	leafLen = n
	f()
}

// diffQuery draws a query shape the same way the central cross-engine
// property test does.
func diffQuery(trial int, rng *rand.Rand) *cq.Query {
	switch trial % 5 {
	case 0:
		return queries.Path(3 + rng.Intn(3))
	case 1:
		return queries.Cycle(3 + rng.Intn(3))
	case 2:
		return queries.Random(4+rng.Intn(2), 0.4+rng.Float64()*0.3, rng.Int63())
	case 3:
		return queries.Lollipop(3, 1+rng.Intn(2))
	default:
		return queries.Clique(3 + rng.Intn(2))
	}
}

// valueWeight weighs every variable by its value. The weights are
// integers, so every sum and product of them a test graph yields is
// exact in float64 and no association of ⊕ or ⊗ can change its bits.
func valueWeight(_ int, v int64) float64 { return float64(v) }

// weightedWant folds the tuples of a result by hand: the sum over tuples
// of the product of their values, and the minimum over tuples of the sum
// of their values — what Aggregate over SumProductSemiring and
// TropicalSemiring with valueWeight must return.
func weightedWant(tuples [][]int64) (sum, min float64) {
	min = TropicalSemiring().Zero
	for _, tu := range tuples {
		prod, tot := 1.0, 0.0
		for _, v := range tu {
			prod *= float64(v)
			tot += float64(v)
		}
		sum += prod
		min = math.Min(min, tot)
	}
	return sum, min
}

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
		out = append(out, append([]int64(nil), mu...))
		return true
	})
	return out
}

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

// TestBatchedDifferentialEquivalence is the leaf scan's differential
// harness: on random graphs, random query shapes and random cache
// policies, every execution (Count, Eval, the streaming entry point, and
// Aggregate over SumProductSemiring and TropicalSemiring with weight =
// value, the fold's weighted tail) must give, at every block length,
// exactly what length 1 — the scalar Key/Next sequence — gives: same
// counts, bit-identical aggregates, bit-identical stats.Counters for
// completed scans, at worker counts 1, 2, 3 and 8. Eval and the
// stream, under the trial's caches, emit the no-cache sequential
// sequence row for row. The sequential no-cache count is also held to
// the counters of leapfrog.Count, the Fig. 1 loop that never enters
// trie's leapfrog kernel, and the aggregates to a fold of the result by
// hand. Two fixed shapes follow the random trials at one and two
// workers: a plan over copy-on-write patched indices, whose legs the
// kernel steps through the patch merge, and a star whose hub joins nine
// atoms.
func TestBatchedDifferentialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(12)
		g := dataset.ErdosRenyi(n, 0.1+rng.Float64()*0.2, rng.Int63())
		db := g.DB(rng.Intn(2) == 0)
		q := diffQuery(trial, rng)
		plan, err := AutoPlan(q, db, AutoOptions{})
		if err != nil {
			t.Fatalf("trial %d: AutoPlan: %v", trial, err)
		}
		pol := Policy{
			Capacity:         rng.Intn(20),
			SupportThreshold: rng.Intn(3),
			Eviction:         EvictionMode(rng.Intn(3)),
			Disabled:         rng.Intn(4) == 0,
		}
		checkBatched(t, fmt.Sprintf("trial %d", trial), q, plan, db, nil, pol, []int{1, 2, 3, 8})
	}

	q, db, reg := patchedPath(t)
	patches := reg.Stats().Patches
	plan := must(AutoPlan(q, db, AutoOptions{Tries: reg}))
	if reg.Stats().Patches == patches {
		t.Fatal("patched: the plan's indices are not patches")
	}
	checkBatched(t, "patched", q, plan, db, reg, Policy{}, []int{1, 2})

	q, db = nineStar(rng)
	plan = must(AutoPlan(q, db, AutoOptions{}))
	checkBatched(t, "star-9", q, plan, db, nil, Policy{Capacity: 16, Eviction: EvictLRU}, []int{1, 2})
}

// patchedPath is a 4-path over a graph one 16-tuple delta after the
// version its registry first indexed, so the plan AutoPlan binds over
// the registry runs on patched tries.
func patchedPath(t *testing.T) (*cq.Query, *relation.DB, *trie.Registry) {
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
		t.Fatal(err)
	}
	q := queries.Path(4)
	reg := trie.NewRegistry(0)
	must(AutoPlan(q, relation.NewDB(rel), AutoOptions{Tries: reg}))
	reg.Observe(v)
	return q, relation.NewDB(v.Rel), reg
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

// checkBatched is TestBatchedDifferentialEquivalence on one plan of q
// over db under pol at each worker count. tries is the source the plan's indices
// came from (nil: private builds), which the reference leapfrog.Count
// instance draws on too.
func checkBatched(t *testing.T, label string, q *cq.Query, plan *Plan, db *relation.DB, tries leapfrog.TrieSource, pol Policy, workerCounts []int) {
	t.Helper()
	want, err := naive.Count(q, db)
	if err != nil {
		t.Fatal(err)
	}
	nc := pol
	nc.Disabled = true
	nc.Workers = 1

	// Fig. 1 on an instance of its own over the plan's order and
	// indices: what the sequential no-cache count must charge.
	var lc stats.Counters
	inst, err := leapfrog.BuildWith(q, db, plan.Order(), &lc, tries)
	if err != nil {
		t.Fatal(err)
	}
	lc.Reset() // the trie builds are not the scan's
	if got := leapfrog.Count(inst); got != want {
		t.Fatalf("%s: leapfrog.Count %d, want %d (query %s)", label, got, want, q)
	}

	// run is everything one block length executes, per worker count.
	type run struct {
		count, eval, sumC, minC stats.Counters
		tuples, streamed        [][]int64
		sum, min                float64
	}
	runAt := func(bl, workers int) (r run) {
		atLeafLen(bl, func() {
			base := pol
			base.Workers = workers
			res := must(plan.WithCounters(&r.count).CountParallelCtx(bg, base))
			if res.Count != want {
				t.Fatalf("%s w=%d len=%d: count %d, want %d (query %s)", label, workers, bl, res.Count, want, q)
			}
			r.sum, _, _ = fold(bg, plan.WithCounters(&r.sumC), base, SumProductSemiring(), valueWeight, nil)
			r.min, _, _ = fold(bg, plan.WithCounters(&r.minC), base, TropicalSemiring(), valueWeight, nil)
			r.tuples = collectTuples(func(emit func([]int64) bool) {
				plan.WithCounters(&r.eval).EvalParallelCtx(bg, base, emit)
			})
			r.streamed = collectTuples(func(emit func([]int64) bool) {
				plan.EvalStreamCtx(bg, pol, workers, emit)
			})
			if workers == 1 {
				var c stats.Counters
				if got := plan.WithCounters(&c).Count(nc).Count; got != want || c != lc {
					t.Fatalf("%s len=%d: no-cache count %d (want %d) diverges from leapfrog.Count\ncore:     %+v\nleapfrog: %+v",
						label, bl, got, want, c, lc)
				}
			}
		})
		return r
	}

	// The sequential no-cache scan order, which every enumeration
	// emits at every policy, worker count and block length — the
	// byte-determinism the NDJSON endpoint relies on.
	canon := collectTuples(func(emit func([]int64) bool) {
		plan.Eval(nc, emit)
	})
	if int64(len(canon)) != want {
		t.Fatalf("%s: no-cache eval emitted %d, want %d", label, len(canon), want)
	}
	t.Logf("%s: %d tuples", label, want)
	sumWant, minWant := weightedWant(canon)
	for _, workers := range workerCounts {
		ref := runAt(1, workers)
		if ref.sum != sumWant || ref.min != minWant {
			t.Fatalf("%s w=%d: scalar sum %v min %v, want %v and %v (query %s)", label, workers, ref.sum, ref.min, sumWant, minWant, q)
		}
		sameTuples(t, fmt.Sprintf("%s w=%d: scalar eval", label, workers), ref.tuples, canon)
		sameTuples(t, fmt.Sprintf("%s w=%d: scalar stream", label, workers), ref.streamed, canon)
		for _, bl := range blockLens[1:] {
			got := runAt(bl, workers)
			sameTuples(t, fmt.Sprintf("%s w=%d len=%d: block eval", label, workers, bl), got.tuples, canon)
			sameTuples(t, fmt.Sprintf("%s w=%d len=%d: block stream", label, workers, bl), got.streamed, canon)
			if got.count != ref.count {
				t.Fatalf("%s w=%d len=%d: count counters diverge\nblock:  %+v\nscalar: %+v", label, workers, bl, got.count, ref.count)
			}
			if got.eval != ref.eval {
				t.Fatalf("%s w=%d len=%d: eval counters diverge\nblock:  %+v\nscalar: %+v", label, workers, bl, got.eval, ref.eval)
			}
			if math.Float64bits(got.sum) != math.Float64bits(ref.sum) || math.Float64bits(got.min) != math.Float64bits(ref.min) {
				t.Fatalf("%s w=%d len=%d: sum %v min %v, scalar %v and %v", label, workers, bl, got.sum, got.min, ref.sum, ref.min)
			}
			if got.sumC != ref.sumC || got.minC != ref.minC {
				t.Fatalf("%s w=%d len=%d: aggregate counters diverge\nblock:  %+v %+v\nscalar: %+v %+v", label, workers, bl, got.sumC, got.minC, ref.sumC, ref.minC)
			}
		}
	}
}

// TestBatchedEarlyStop checks the one place a block scan is allowed to
// differ from the scalar sequence: an early-stopped scan (consumer
// returning false) may have read ahead to the end of its block, but must
// still terminate cleanly, deliver exactly the requested prefix of the
// canonical order, and stop the sharded producers without leaking
// goroutines (the -race run covers the leak half; here we pin the prefix
// semantics).
func TestBatchedEarlyStop(t *testing.T) {
	g := dataset.PreferentialAttachment(60, 4, 13)
	db := g.DB(false)
	q := queries.Path(4)
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nc := Policy{Disabled: true}
	canon := collectTuples(func(emit func([]int64) bool) {
		plan.Eval(nc, emit)
	})
	if len(canon) < 50 {
		t.Skipf("result too small (%d) for the early-stop test", len(canon))
	}
	for _, workers := range []int{1, 2, 4} {
		for _, stop := range []int{1, 7, len(canon) / 2} {
			for _, bl := range blockLens {
				atLeafLen(bl, func() {
					var got [][]int64
					res := must(plan.EvalStreamCtx(bg, nc, workers, func(mu []int64) bool {
						got = append(got, append([]int64(nil), mu...))
						return len(got) < stop
					}))
					if len(got) != stop {
						t.Fatalf("w=%d stop=%d len=%d: got %d rows", workers, stop, bl, len(got))
					}
					if res.Emitted != int64(stop) {
						t.Fatalf("w=%d stop=%d len=%d: result reports %d emitted", workers, stop, bl, res.Emitted)
					}
					sameTuples(t, "early-stop prefix", got, canon[:stop])
				})
			}
		}
	}
}
