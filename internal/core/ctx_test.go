package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/leapfrog"
	"repro/internal/queries"
	"repro/internal/relation"
)

// slowPlan compiles a cyclic query that runs for seconds at every
// worker count (over 3 s at 1 and at 4 workers on 2 vCPUs), so the
// tests' head starts (20-30 ms) always land mid-join, however fast the
// host or however late a loaded scheduler wakes the canceller. Every
// test cancels it, so its length costs no test time.
func slowPlan(t *testing.T) *Plan {
	t.Helper()
	db := dataset.CliqueUnion(4000, 4000, 20, 1.6, 9).DB(false)
	plan, err := AutoPlan(queries.Cycle(6), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func quickPlan(t *testing.T) *Plan {
	t.Helper()
	db := dataset.TriadicPA(120, 3, 0.4, 7).DB(false)
	plan, err := AutoPlan(queries.Cycle(4), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestCountCtxBackgroundMatchesCount pins the wrapper contract: under a
// non-cancellable context every Ctx variant returns exactly what its
// plain twin does.
func TestCountCtxBackgroundMatchesCount(t *testing.T) {
	plan := quickPlan(t)
	ctx := context.Background()
	want := plan.Count(Policy{})

	got, err := plan.CountParallelCtx(ctx, Policy{Workers: 1})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("CountCtx = %+v, %v; want %+v", got, err, want)
	}
	gotPar, err := plan.CountParallelCtx(ctx, Policy{Workers: 4})
	if err != nil || gotPar.Count != want.Count {
		t.Fatalf("CountParallelCtx = %+v, %v; want count %d", gotPar, err, want.Count)
	}
	sr := CountSemiring()
	agg, err := AggregateParallelCtx(ctx, plan, Policy{Workers: 1}, sr, UnitWeight(sr))
	if err != nil || agg != want.Count {
		t.Fatalf("AggregateCtx = %d, %v; want %d", agg, err, want.Count)
	}
	aggPar, err := AggregateParallelCtx(ctx, plan, Policy{Workers: 4}, sr, UnitWeight(sr))
	if err != nil || aggPar != want.Count {
		t.Fatalf("AggregateParallelCtx = %d, %v; want %d", aggPar, err, want.Count)
	}
	var n int64
	res, err := plan.EvalParallelCtx(ctx, Policy{Workers: 1}, func([]int64) bool { n++; return true })
	if err != nil || n != want.Count || res.Emitted != want.Count {
		t.Fatalf("EvalCtx emitted %d (res %+v, err %v), want %d", n, res, err, want.Count)
	}
}

// TestCountCtxCancelPromptness is the acceptance bar: a cancellation
// landing mid-join on a long-running cyclic query must surface as
// ctx.Err() within 50ms, sequential and parallel alike.
func TestCountCtxCancelPromptness(t *testing.T) {
	plan := slowPlan(t)
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"sequential", func(ctx context.Context) error {
			_, err := plan.CountParallelCtx(ctx, Policy{Workers: 1})
			return err
		}},
		{"parallel", func(ctx context.Context) error {
			_, err := plan.CountParallelCtx(ctx, Policy{Workers: 4})
			return err
		}},
		{"eval", func(ctx context.Context) error {
			_, err := plan.EvalParallelCtx(ctx, Policy{Workers: 1}, func([]int64) bool { return true })
			return err
		}},
		{"eval-sharded", func(ctx context.Context) error {
			_, err := plan.EvalParallelCtx(ctx, Policy{Workers: 4}, func([]int64) bool { return true })
			return err
		}},
		{"eval-limited", func(ctx context.Context) error {
			_, err := plan.EvalLimitCtx(ctx, Policy{Workers: 1}, 5, func([]int64) bool { return true })
			return err
		}},
		{"eval-limited-sharded", func(ctx context.Context) error {
			_, err := plan.EvalLimitCtx(ctx, Policy{Workers: 4}, 5, func([]int64) bool { return true })
			return err
		}},
		{"aggregate", func(ctx context.Context) error {
			sr := CountSemiring()
			_, err := AggregateParallelCtx(ctx, plan, Policy{Workers: 4}, sr, UnitWeight(sr))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- tc.run(ctx) }()

			time.Sleep(30 * time.Millisecond) // let the join get going
			cancelled := time.Now()
			cancel()
			select {
			case err := <-done:
				if lag := time.Since(cancelled); lag > 50*time.Millisecond {
					t.Fatalf("returned %v after cancel, want <= 50ms", lag)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancelled join did not return within 2s")
			}
		})
	}
}

// TestCountCtxDeadline exercises the deadline path: an expired context
// fails before the scan starts, a mid-join deadline unwinds like an
// explicit cancel.
func TestCountCtxDeadline(t *testing.T) {
	plan := slowPlan(t)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := plan.CountParallelCtx(expired, Policy{Workers: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v, want DeadlineExceeded", err)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := plan.CountParallelCtx(ctx, Policy{Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-join deadline: err = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("deadline unwind took %s", took)
	}
}

// TestEvalCtxCancelKeepsEmitted pins the streaming contract: tuples
// emitted before the cancel stand, and no emission follows it.
func TestEvalCtxCancelKeepsEmitted(t *testing.T) {
	plan := slowPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	var emitted int64
	var afterCancel int64
	cancelledAt := int64(-1)
	_, err := plan.EvalParallelCtx(ctx, Policy{Workers: 1}, func([]int64) bool {
		emitted++
		if emitted == 1000 {
			cancel()
			cancelledAt = emitted
		} else if cancelledAt >= 0 {
			afterCancel++
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cancelledAt < 0 {
		t.Skip("result smaller than cancel threshold")
	}
	// Cooperative polling may deliver a bounded tail after the cancel
	// (up to one polling period per open depth), never an unbounded one.
	if afterCancel > 8*1024 {
		t.Fatalf("%d tuples emitted after cancel", afterCancel)
	}
}

// TestEvalCtxCancelDuringExpansion pins the cache-hit path's
// promptness: expanding a memoized factorized set advances no
// iterator, so the expansion itself must poll the canceler — without
// that, a cancelled eval would keep emitting a huge cached subtree to
// completion. The disconnected query E(x,y), F(z,w) makes bag {z,w}
// cacheable with an empty adhesion: after the first (x,y) prefix
// builds F's set, every later prefix is a pure expansion of it.
func TestEvalCtxCancelDuringExpansion(t *testing.T) {
	n := int64(5000) // one expansion is n rows — far above the poll period
	var etuples, ftuples [][]int64
	for i := int64(0); i < n; i++ {
		etuples = append(etuples, []int64{i, i + 1})
		ftuples = append(ftuples, []int64{i, i + 2})
	}
	db := relation.NewDB(
		relation.MustNew("E", 2, etuples),
		relation.MustNew("F", 2, ftuples),
	)
	q, err := cq.Parse("E(x,y), F(z,w)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := AutoPlan(q, db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var emitted, afterCancel int64
	_, err = plan.EvalParallelCtx(ctx, Policy{Workers: 1}, func([]int64) bool {
		emitted++
		if emitted == 2*n { // inside the second prefix: expansion territory
			cancel()
		} else if emitted > 2*n {
			afterCancel++
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (emitted %d of %d)", err, emitted, n*n)
	}
	// The expansion polls every entry, so the post-cancel tail is
	// bounded by the polling period per nesting level — far below the
	// n*n full result.
	if afterCancel > 4*leapfrog.CancelCheckEvery {
		t.Fatalf("%d tuples emitted after cancel during expansion", afterCancel)
	}
}

// TestCancelledRunCachesNothing guards the partial-intermediate hazard:
// a cancelled count must not leave partial subtree counts in a session
// cache that a later run could trust.
func TestCancelledRunCachesNothing(t *testing.T) {
	db := dataset.CliqueUnion(600, 340, 20, 1.6, 9).DB(false)
	plan, err := AutoPlan(queries.Cycle(5), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Count(Policy{}).Count

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := plan.CountParallelCtx(ctx, Policy{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Skipf("join finished before cancel (res=%+v)", res)
	}
	if res.CachedEntries != 0 {
		t.Fatalf("cancelled run reported %d cached entries", res.CachedEntries)
	}
	// The plan is stateless across runs; a full re-run must agree with
	// the ground truth.
	if got := plan.Count(Policy{}).Count; got != want {
		t.Fatalf("count after cancelled run = %d, want %d", got, want)
	}
}
