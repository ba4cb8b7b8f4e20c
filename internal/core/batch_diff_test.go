package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/queries"
	"repro/internal/relation"
	"repro/internal/stats"
)

// batchDiffSizes are the block sizes the differential harness drives:
// degenerate (1), tiny primes that straddle shard and batch boundaries,
// the default-ish 64, and one far larger than any trial's result set.
var batchDiffSizes = []int{1, 2, 3, 7, 64, 1024}

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

// TestBatchedDifferentialEquivalence is the batched-execution
// differential harness: on random graphs, random query shapes and
// random cache policies, every batched execution (Count, Eval and the
// streaming producer) must reproduce the
// scalar path exactly — same counts, same tuples in the same order, and
// bit-identical stats.Counters for completed scans — across worker
// counts 1..3 and block sizes from 1 to far past the result size.
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
		want, err := naive.Count(q, db)
		if err != nil {
			t.Fatal(err)
		}
		pol := Policy{
			Capacity:         rng.Intn(20),
			SupportThreshold: rng.Intn(3),
			Eviction:         EvictionMode(rng.Intn(3)),
			Disabled:         rng.Intn(4) == 0,
		}

		for _, workers := range []int{1, 2, 3} {
			base := pol
			base.Workers = workers

			// Scalar reference for this worker count.
			var cs stats.Counters
			sp := plan.WithCounters(&cs)
			if got := must(sp.CountParallelCtx(bg, base)).Count; got != want {
				t.Fatalf("trial %d w=%d: scalar count %d, want %d (query %s)", trial, workers, got, want, q)
			}
			var es stats.Counters
			wantTuples := collectTuples(func(emit func([]int64) bool) {
				plan.WithCounters(&es).EvalParallelCtx(bg, base, emit)
			})
			if int64(len(wantTuples)) != want {
				t.Fatalf("trial %d w=%d: scalar eval emitted %d, want %d", trial, workers, len(wantTuples), want)
			}

			for _, bs := range batchDiffSizes {
				bpol := base
				bpol.BatchSize = bs

				var cb stats.Counters
				if got := must(plan.WithCounters(&cb).CountParallelCtx(bg, bpol)).Count; got != want {
					t.Fatalf("trial %d w=%d bs=%d: batched count %d, want %d (query %s)", trial, workers, bs, got, want, q)
				}
				if cb != cs {
					t.Fatalf("trial %d w=%d bs=%d: count counters diverge\nbatch:  %+v\nscalar: %+v", trial, workers, bs, cb, cs)
				}

				var eb stats.Counters
				gotTuples := collectTuples(func(emit func([]int64) bool) {
					plan.WithCounters(&eb).EvalParallelCtx(bg, bpol, emit)
				})
				sameTuples(t, "batched eval", gotTuples, wantTuples)
				if eb != es {
					t.Fatalf("trial %d w=%d bs=%d: eval counters diverge\nbatch:  %+v\nscalar: %+v", trial, workers, bs, eb, es)
				}
			}
		}

		// Streaming producer: under a disabled cache the stream must be
		// tuple-for-tuple the sequential scan order at every worker count
		// and block size — the byte-determinism the NDJSON endpoint
		// relies on. Counters must match the scalar stream at the same
		// worker count.
		nc := pol
		nc.Disabled = true
		nc.Workers = 1
		canon := collectTuples(func(emit func([]int64) bool) {
			plan.Eval(nc, emit)
		})
		for _, workers := range []int{1, 2, 3} {
			var ss stats.Counters
			scalarStream := collectTuples(func(emit func([]int64) bool) {
				plan.WithCounters(&ss).EvalStreamCtx(bg, nc, workers, emit)
			})
			sameTuples(t, "stream scalar", scalarStream, canon)
			for _, bs := range batchDiffSizes {
				bpol := nc
				bpol.BatchSize = bs
				var sb stats.Counters
				stream := collectTuples(func(emit func([]int64) bool) {
					plan.WithCounters(&sb).EvalStreamCtx(bg, bpol, workers, emit)
				})
				sameTuples(t, "stream batched", stream, canon)
				if sb != ss {
					t.Fatalf("trial %d w=%d bs=%d: stream counters diverge\nbatch:  %+v\nscalar: %+v", trial, workers, bs, sb, ss)
				}
			}
		}

		// A cached parallel stream silently trades its caches for the
		// canonical order: same bytes as the no-cache stream.
		for _, workers := range []int{2, 3} {
			cached := pol
			cached.Workers = 1
			stream := collectTuples(func(emit func([]int64) bool) {
				plan.EvalStreamCtx(bg, cached, workers, emit)
			})
			sameTuples(t, "cached parallel stream", stream, canon)
		}
	}
}

// TestBatchedEarlyStop checks the one place batched execution is
// allowed to differ from scalar: an early-stopped scan (consumer
// returning false) must still terminate cleanly, deliver exactly the
// requested prefix of the canonical order, and stop the sharded
// producers without leaking goroutines (the -race run covers the leak
// half; here we pin the prefix semantics).
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
			for _, bs := range []int{0, 1, 3, 64} {
				pol := nc
				pol.BatchSize = bs
				var got [][]int64
				res := must(plan.EvalStreamCtx(bg, pol, workers, func(mu []int64) bool {
					got = append(got, append([]int64(nil), mu...))
					return len(got) < stop
				}))
				if len(got) != stop {
					t.Fatalf("w=%d stop=%d bs=%d: got %d rows", workers, stop, bs, len(got))
				}
				if res.Emitted != int64(stop) {
					t.Fatalf("w=%d stop=%d bs=%d: result reports %d emitted", workers, stop, bs, res.Emitted)
				}
				sameTuples(t, "early-stop prefix", got, canon[:stop])
			}
		}
	}
}
