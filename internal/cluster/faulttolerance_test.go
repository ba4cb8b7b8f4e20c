package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/server"
)

// slowShard delays buffered queries — the hedging target.
type slowShard struct {
	Shard
	delay time.Duration
}

func (s *slowShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Shard.Do(ctx, req)
}

// rejectingShard answers every query with an authoritative 4xx.
type rejectingShard struct{ Shard }

func (s *rejectingShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	return nil, &StatusError{Status: 400, Msg: "malformed"}
}

// dyingStream wraps a healthy shard so its stream delivers the header
// and n rows, then dies with a transport-looking error — the
// mid-stream reset case.
type dyingStream struct {
	Shard
	rows int
}

var errStreamReset = errors.New("connection reset mid-stream")

func (d *dyingStream) Stream(ctx context.Context, req server.Request, header func([]string), row func(mu []int64) bool) (server.StreamSummary, error) {
	n := 0
	sum, err := d.Shard.Stream(ctx, req, header, func(mu []int64) bool {
		if n >= d.rows {
			return false
		}
		n++
		return row(mu)
	})
	if err != nil {
		return sum, err
	}
	return server.StreamSummary{Count: int64(n)}, errStreamReset
}

// TestReplicaFailover: a replica set whose preferred endpoint is dead
// serves every read from the survivor; updates require the whole group.
func TestReplicaFailover(t *testing.T) {
	ctx := context.Background()
	db := latticeDB()
	e := server.NewEngine(db, server.Config{})
	rs := NewReplicaSet([]Shard{
		&failingShard{name: "dead:1"},
		newEngineShard("live:1", e),
	}, ReplicaConfig{})

	if rs.Name() != "dead:1|live:1" {
		t.Fatalf("replica set name = %q", rs.Name())
	}
	if err := rs.Ready(ctx); err != nil {
		t.Fatalf("Ready with one live replica: %v", err)
	}
	want, err := e.DoCtx(ctx, server.Request{Query: "E(x,y)"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.Do(ctx, server.Request{Query: "E(x,y)"})
	if err != nil {
		t.Fatalf("Do did not fail over: %v", err)
	}
	if got.Count != want.Count {
		t.Fatalf("failover count = %d, want %d", got.Count, want.Count)
	}
	if _, err := rs.Versions(ctx, nil); err != nil {
		t.Fatalf("Versions did not fail over: %v", err)
	}
	if _, err := rs.Stats(ctx); err != nil {
		t.Fatalf("Stats did not fail over: %v", err)
	}
	order, rows, _ := streamAll(t, rs.Stream, server.Request{Query: "E(x,y)"})
	if len(order) == 0 || int64(len(rows)) != want.Count {
		t.Fatalf("stream failover: %d rows (order %v), want %d", len(rows), order, want.Count)
	}

	// A delta must reach every replica — the dead one fails the group.
	_, err = rs.Update(ctx, server.UpdateRequest{Relation: "E", Inserts: [][]int64{{100001, 100002}}})
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != "dead:1" {
		t.Fatalf("update with a dead replica: %v, want ShardError naming dead:1", err)
	}
}

// TestReplicaAuthoritative4xx: a 4xx is the shard answering about the
// request, so the set must NOT mask it by consulting another replica.
func TestReplicaAuthoritative4xx(t *testing.T) {
	db := latticeDB()
	e := server.NewEngine(db, server.Config{})
	rs := NewReplicaSet([]Shard{
		&rejectingShard{newEngineShard("a", e)},
		newEngineShard("b", e),
	}, ReplicaConfig{})
	_, err := rs.Do(context.Background(), server.Request{Query: "E(x,y)"})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 400 {
		t.Fatalf("4xx was not authoritative: %v", err)
	}
}

// TestReplicaHedgedDo: with hedging armed, a slow preferred replica is
// overtaken by the hedge launched on the second — the answer arrives
// long before the slow replica's delay elapses.
func TestReplicaHedgedDo(t *testing.T) {
	db := latticeDB()
	e := server.NewEngine(db, server.Config{})
	rs := NewReplicaSet([]Shard{
		&slowShard{Shard: newEngineShard("slow", e), delay: 30 * time.Second},
		newEngineShard("fast", e),
	}, ReplicaConfig{Hedge: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := rs.Do(ctx, server.Request{Query: "E(x,y)"})
	if err != nil {
		t.Fatalf("hedged Do: %v", err)
	}
	if resp.Count == 0 {
		t.Fatal("hedged Do returned an empty answer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged Do took %v — the hedge never fired", elapsed)
	}
}

// TestReplicaStale closes the hole carried since replica groups exist: a
// replica that lost an update its siblings hold (here a memory-only
// replica restarted from its base data) used to serve single-shard reads
// silently. Every read now carries the vector the coordinator has seen
// applied, so the stale replica refuses, reads — sequential, hedged and
// streamed — fail over to the caught-up one, and with only the stale one
// alive the answer is a 409 that allow_partial does not absorb, never
// the old data.
func TestReplicaStale(t *testing.T) {
	ctx := context.Background()
	db := latticeDB()
	for _, hedge := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			restarted := &spyShard{Shard: newEngineShard("a", server.NewEngine(db, server.Config{}))}
			caughtUp := server.NewEngine(db, server.Config{})
			fresh := &spyShard{Shard: newEngineShard("b", caughtUp)}
			coord, err := New(Routing{Shards: 1}, []Shard{NewReplicaSet([]Shard{restarted, fresh}, ReplicaConfig{Hedge: hedge})}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			delta := server.UpdateRequest{Relation: "E", Inserts: [][]int64{{1, 100001}, {1, 100002}, {2, 100003}}}
			if _, err := coord.Update(ctx, delta); err != nil {
				t.Fatal(err)
			}
			restarted.Shard = newEngineShard("a", server.NewEngine(db, server.Config{}))

			// One partition: the caught-up replica's own answer is the truth.
			for _, q := range []string{"E(1,y)", "E(x,y), E(x,z)"} {
				for _, mode := range []string{"count", "eval", "stream"} {
					req := server.Request{Query: q, Mode: mode}
					got, err := inProcess(coord.Do, coord.StreamCtx, req, 0)
					if err != nil {
						t.Fatalf("%s %s past a stale replica: %v", q, mode, err)
					}
					if want, _ := inProcess(caughtUp.DoCtx, caughtUp.StreamCtx, req, 0); diffAnswers(got, want) != "" {
						t.Fatalf("%s %s past a stale replica: %s", q, mode, diffAnswers(got, want))
					}
				}
			}
			if restarted.do.Load() == 0 || restarted.stream.Load() == 0 {
				t.Fatalf("the preferred (stale) replica saw %d queries and %d streams — it was never asked, so nothing was refused", restarted.do.Load(), restarted.stream.Load())
			}

			fresh.Shard = &failingShard{name: "b"}
			for _, ap := range []bool{false, true} {
				if _, err := coord.Do(ctx, server.Request{Query: "E(1,y)", AllowPartial: ap}); !errors.Is(err, ErrSnapshotMoved) {
					t.Fatalf("allow_partial=%v read with only the stale replica alive: %v, want ErrSnapshotMoved", ap, err)
				}
				_, err := coord.StreamCtx(ctx, server.Request{Query: "E(1,y)", AllowPartial: ap}, nil, func([]int64) bool {
					t.Error("a stale replica's row was delivered")
					return true
				})
				if !errors.Is(err, ErrSnapshotMoved) {
					t.Fatalf("allow_partial=%v stream with only the stale replica alive: %v, want ErrSnapshotMoved", ap, err)
				}
			}
			st, err := coord.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.SnapshotRetries != 0 || st.SnapshotRejects != 4 {
				t.Fatalf("snapshot_retries=%d snapshot_rejects=%d, want 0 (behind is not retried) and 4", st.SnapshotRetries, st.SnapshotRejects)
			}
		})
	}
}

// cutShort stalls its shard's first query until the query is cancelled,
// closing entered as it begins (stall set), or holds every query until
// entered is closed.
type cutShort struct {
	Shard
	entered chan struct{}
	stall   bool
	once    sync.Once
}

func (s *cutShort) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	first := false
	if s.stall {
		s.once.Do(func() { first = true; close(s.entered) })
	}
	if !first {
		select {
		case <-s.entered:
			return s.Shard.Do(ctx, req)
		case <-ctx.Done():
		}
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestReplicaFailoverCutShort: a replica group whose failover a
// sibling's refusal cuts short answers with the cancellation, not with
// the stale refusal it passed over — so the coordinator retries at the
// sibling's newer vector instead of answering 409. The group's preferred
// replica missed an update and refuses as behind; the read fails over to
// the caught-up replica, which stalls; only then does the other shard,
// moved behind the coordinator's back, refuse with its newer vector.
func TestReplicaFailoverCutShort(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dbs, routing, err := Partition(latticeDB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	caughtUp, moved := server.NewEngine(dbs[0], server.Config{}), server.NewEngine(dbs[1], server.Config{})
	entered := make(chan struct{})
	coord, err := New(routing, []Shard{
		NewReplicaSet([]Shard{
			&refusingUpdates{newEngineShard("stale", server.NewEngine(dbs[0], server.Config{}))},
			&cutShort{Shard: newEngineShard("caught-up", caughtUp), entered: entered, stall: true},
		}, ReplicaConfig{}),
		&cutShort{Shard: newEngineShard("moved", moved), entered: entered},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := rootOn(0, 2), rootOn(1, 2)
	if _, err := coord.Update(ctx, server.UpdateRequest{Relation: "E", Inserts: [][]int64{{r0, 1}, {r0, 2}, {r1, 1}}}); !errors.Is(err, errShardDown) {
		t.Fatalf("update the stale replica missed: %v, want its failure", err)
	}
	if _, err := moved.Update(server.UpdateRequest{Relation: "E", Inserts: [][]int64{{r1, 2}}}); err != nil {
		t.Fatal(err)
	}
	q := server.Request{Query: "E(x,y), E(x,z)"}
	got, err := coord.Do(ctx, q)
	if err != nil {
		t.Fatalf("read past a failover cut short: %v", err)
	}
	var want int64
	for _, e := range []*server.Engine{caughtUp, moved} {
		resp, err := e.DoCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want += resp.Count
	}
	if st, err := coord.Stats(ctx); err != nil || got.Count != want || st.SnapshotRetries != 1 || st.SnapshotRejects != 0 {
		t.Fatalf("count %d, the partitions' %d; stats %+v (%v), want one snapshot retry and no reject", got.Count, want, st, err)
	}
}

// refusingUpdates serves reads from its shard and fails every update
// without applying it: a replica unreachable while a delta went out.
type refusingUpdates struct{ Shard }

func (s *refusingUpdates) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResult, error) {
	return nil, errShardDown
}

// TestReplicaPartialUpdate: an update one replica of a group applied and
// the other missed fails, but the coordinator learns the version the
// group now serves from the replica that applied it. The next read
// expects that version, so the replica left behind refuses and the
// caught-up one answers, at the new version and without a snapshot
// retry, whichever of the two is listed first.
func TestReplicaPartialUpdate(t *testing.T) {
	ctx := context.Background()
	db := latticeDB()
	for _, missedFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("missed-first=%v", missedFirst), func(t *testing.T) {
			missed := &refusingUpdates{newEngineShard("a", server.NewEngine(db, server.Config{}))}
			applied := newEngineShard("b", server.NewEngine(db, server.Config{}))
			reps := []Shard{missed, applied}
			if !missedFirst {
				reps = []Shard{applied, missed}
			}
			coord, err := New(Routing{Shards: 1}, []Shard{NewReplicaSet(reps, ReplicaConfig{})}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			q := server.Request{Query: "E(1,y)"}
			old, err := coord.Do(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			delta := server.UpdateRequest{Relation: "E", Inserts: [][]int64{{1, 100001}, {1, 100002}}}
			if _, err := coord.Update(ctx, delta); !errors.Is(err, errShardDown) {
				t.Fatalf("update a replica missed: %v, want its failure", err)
			}
			before, err := coord.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// The coordinator's answer carries no version vector; the
			// delta adds two rows, so counting them is answering at the
			// new version.
			if got, err := coord.Do(ctx, q); err != nil || got.Count != old.Count+2 {
				t.Fatalf("count %d (%v) after the update, want %d", got.Count, err, old.Count+2)
			}
			after, err := coord.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if after.SnapshotRetries != before.SnapshotRetries {
				t.Fatalf("snapshot_retries %d -> %d, want unchanged", before.SnapshotRetries, after.SnapshotRetries)
			}
		})
	}
}

// partialFleet builds a 4-shard coordinator with shard `dead` replaced
// by a failingShard, returning the live engines for ground truth.
func partialFleet(t *testing.T, db *relation.DB, dead int) (*Coordinator, []*server.Engine) {
	t.Helper()
	return newFleet(t, db, 4, server.Config{}, Config{}, func(i int, s Shard) Shard {
		if i == dead {
			return &failingShard{name: s.Name()}
		}
		return s
	})
}

// liveCount sums a query's count over every engine except the dead one.
func liveCount(t *testing.T, engines []*server.Engine, dead int, q string) int64 {
	t.Helper()
	var sum int64
	for i, e := range engines {
		if i == dead {
			continue
		}
		resp, err := e.DoCtx(context.Background(), server.Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		sum += resp.Count
	}
	return sum
}

// TestPartialResults pins the allow_partial contract on buffered
// queries: strict mode fails typed, partial mode answers exactly over
// the survivors and names what is missing — and a query routed
// entirely to live shards is never marked partial.
func TestPartialResults(t *testing.T) {
	ctx := context.Background()
	db := latticeDB()
	const dead = 2
	coord, engines := partialFleet(t, db, dead)
	q := "E(x,y), E(x,z)"

	// Strict: typed refusal naming the dead shard.
	_, err := coord.Do(ctx, server.Request{Query: q})
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != "shard-2" {
		t.Fatalf("strict query over a dead shard: %v, want ShardError naming shard-2", err)
	}

	// Partial: exact over survivors, flagged, missing named.
	resp, err := coord.Do(ctx, server.Request{Query: q, AllowPartial: true})
	if err != nil {
		t.Fatalf("allow_partial query: %v", err)
	}
	if !resp.Partial || !reflect.DeepEqual(resp.Missing, []string{"shard-2"}) {
		t.Fatalf("partial=%v missing=%v, want partial naming shard-2", resp.Partial, resp.Missing)
	}
	if want := liveCount(t, engines, dead, q); resp.Count != want {
		t.Fatalf("partial count = %d, want exact-over-survivors %d", resp.Count, want)
	}

	// Eval merges the survivors' samples; the count stays exact.
	eresp, err := coord.Do(ctx, server.Request{Query: q, Mode: "eval", AllowPartial: true})
	if err != nil {
		t.Fatalf("allow_partial eval: %v", err)
	}
	if !eresp.Partial || eresp.Count != resp.Count {
		t.Fatalf("partial eval: partial=%v count=%d, want count %d", eresp.Partial, eresp.Count, resp.Count)
	}

	// A single-shard route that avoids the dead shard is exact — no
	// partial flag; one that needs the dead shard has no survivors and
	// stays a typed 502 even with allow_partial.
	for v := int64(0); v < 8; v++ {
		vq := fmt.Sprintf("E(%d,y)", v)
		resp, err := coord.Do(ctx, server.Request{Query: vq, AllowPartial: true})
		if ShardOf(v, 4) == dead {
			if !errors.As(err, &se) {
				t.Fatalf("%s routed to the dead shard: %v, want ShardError", vq, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s routed to a live shard: %v", vq, err)
		}
		if resp.Partial {
			t.Fatalf("%s answered by its live shard is marked partial", vq)
		}
	}

	st, err := coord.Stats(ctx)
	if err != nil {
		t.Fatalf("stats over a degraded fleet: %v", err)
	}
	if st.PartialServed < 2 {
		t.Fatalf("partial_served = %d, want >= 2", st.PartialServed)
	}
	var deadSeen bool
	for _, ss := range st.PerShard {
		if ss.Shard == "shard-2" {
			deadSeen = true
			if ss.Error == "" {
				t.Fatal("dead shard's stats entry carries no error")
			}
		}
	}
	if !deadSeen {
		t.Fatal("dead shard missing from per-shard stats")
	}
}

// TestPartialStream: an allow_partial stream over a degraded fleet
// delivers the exact merge of the surviving partitions with the trailer
// flagged; strict mode refuses before any row.
func TestPartialStream(t *testing.T) {
	ctx := context.Background()
	db := latticeDB()
	const dead = 1
	coord, engines := partialFleet(t, db, dead)
	q := "E(x,y), E(x,z)"

	var strictRows int
	_, err := coord.StreamCtx(ctx, server.Request{Query: q, Mode: "stream"}, nil,
		func(mu []int64) bool { strictRows++; return true })
	if err == nil {
		t.Fatal("strict stream over a dead shard succeeded")
	}
	if strictRows != 0 {
		t.Fatalf("strict stream delivered %d rows before failing", strictRows)
	}

	_, rows, sum := streamAll(t, coord.StreamCtx, server.Request{Query: q, Mode: "stream", AllowPartial: true})
	if !sum.Partial || !reflect.DeepEqual(sum.Missing, []string{"shard-1"}) {
		t.Fatalf("partial stream summary %+v, want partial naming shard-1", sum)
	}
	// Expected: the survivors' streams merged by root — partitions are
	// disjoint and each stream root-ascending, so a stable sort on the
	// root key reproduces the merge.
	var want [][]int64
	for i, e := range engines {
		if i == dead {
			continue
		}
		_, r, _ := streamAll(t, e.StreamCtx, server.Request{Query: q})
		want = append(want, r...)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i][0] < want[j][0] })
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("partial stream rows diverge from survivors' merge: %d rows vs %d", len(rows), len(want))
	}
	if sum.Count != int64(len(rows)) {
		t.Fatalf("partial stream count = %d, delivered %d", sum.Count, len(rows))
	}
}

// TestStreamShardDeathCancelsSiblings pins the mid-stream failure
// contract: when a shard dies after the merge started, the stream fails
// the moment the merge needs the dead head — the surviving scans are
// cancelled and drained before StreamCtx returns (no goroutine leak,
// no silent full-result delivery), rather than streaming the survivors
// to completion and reporting the death afterwards.
func TestStreamShardDeathCancelsSiblings(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	coord, _ := newFleet(t, latticeDB(), 4, server.Config{}, Config{}, func(i int, s Shard) Shard {
		if i == 1 {
			return &dyingStream{Shard: s, rows: 0}
		}
		return s
	})

	delivered := 0
	_, err := coord.StreamCtx(ctx, server.Request{Query: "E(x,y), E(x,z)"}, nil,
		func(mu []int64) bool { delivered++; return true })
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != "shard-1" {
		t.Fatalf("mid-stream death: %v, want ShardError naming shard-1", err)
	}
	if !errors.Is(err, errStreamReset) {
		t.Fatalf("mid-stream death does not wrap the reset: %v", err)
	}
	// The death is discovered at the merge's first pull from the dead
	// shard — before any sibling row is delivered in this schedule, and
	// certainly before the survivors are drained to completion.
	if delivered != 0 {
		t.Fatalf("strict merge delivered %d rows after the shard died", delivered)
	}

	// Under allow_partial the same fleet serves the survivors instead.
	_, rows, sum := streamAll(t, coord.StreamCtx, server.Request{Query: "E(x,y), E(x,z)", AllowPartial: true})
	if !sum.Partial || !reflect.DeepEqual(sum.Missing, []string{"shard-1"}) {
		t.Fatalf("partial summary %+v, want missing shard-1", sum)
	}
	if len(rows) == 0 {
		t.Fatal("partial stream delivered nothing")
	}

	// No goroutine outlives the merge: cancelled sibling scans drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after mid-stream death: %d vs %d at start\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stallingStream is a shard whose scan pauses after its first n rows
// until release closes (or its request is cancelled): a sparse shard
// whose next row is a long way off.
type stallingStream struct {
	Shard
	n       int
	release chan struct{}
}

func (s *stallingStream) Stream(ctx context.Context, req server.Request, header func([]string), row func(mu []int64) bool) (server.StreamSummary, error) {
	k := 0
	sum, err := s.Shard.Stream(ctx, req, header, func(mu []int64) bool {
		if k == s.n {
			select {
			case <-s.release:
			case <-ctx.Done():
				return false
			}
		}
		k++
		return row(mu)
	})
	if err == nil {
		err = ctx.Err() // a stall cut short fails, as a cancelled scan does
	}
	return sum, err
}

// TestStreamMergeDeliversSparseRows: rows a shard has produced reach the
// consumer while the shard's next row is still pending — the merge hands
// rows over in blocks, but never waits for a block to fill. Shard 0
// stalls after 3 rows, far fewer than a block, and is released only once
// every row the merge can order without its next head has arrived: its
// 3 rows and shard 1's rows rooted below the last of them.
func TestStreamMergeDeliversSparseRows(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dbs, routing, err := Partition(latticeDB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	q := server.Request{Query: "E(x,y), E(x,z)"}
	engines := make([]*server.Engine, 2)
	parts := make([][][]int64, 2)
	for i, pdb := range dbs {
		engines[i] = server.NewEngine(pdb, server.Config{})
		_, parts[i], _ = streamAll(t, engines[i].StreamCtx, q)
	}
	const n = 3
	if len(parts[0]) <= n {
		t.Fatalf("shard 0 streams %d rows, want more than %d", len(parts[0]), n)
	}
	ready := n
	for _, mu := range parts[1] {
		if mu[0] < parts[0][n-1][0] {
			ready++
		}
	}
	stall := &stallingStream{Shard: newEngineShard("shard-0", engines[0]), n: n, release: make(chan struct{})}
	coord, err := New(routing, []Shard{stall, newEngineShard("shard-1", engines[1])}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	sum, err := coord.StreamCtx(ctx, q, nil, func([]int64) bool {
		if delivered++; delivered == ready {
			close(stall.release)
		}
		return true
	})
	if err != nil {
		t.Fatalf("stream failed with %d rows delivered, %d orderable before the stall: %v", delivered, ready, err)
	}
	if total := len(parts[0]) + len(parts[1]); sum.Count != int64(total) || delivered != total {
		t.Fatalf("merged %d rows (count %d), want %d", delivered, sum.Count, total)
	}
}

// TestBreakerOpensFailsFastAndRecovers drives a real HTTP client
// through an injected outage: consecutive transport failures open the
// circuit (requests then fail fast with ErrBreakerOpen without touching
// the wire), and after the cooldown a half-open probe closes it again.
func TestBreakerOpensFailsFastAndRecovers(t *testing.T) {
	ctx := context.Background()
	db := latticeDB()
	srv := httptest.NewServer(server.NewHandler(server.NewEngine(db, server.Config{})))
	defer srv.Close()

	inj := faults.New(7).Add(faults.Rule{Site: "transport/s0/query", P: 1, Limit: 3})
	cl := NewClient(srv.URL, ClientConfig{
		retries:          -1,
		backoff:          -1,
		breakerThreshold: 3,
		breakerCooldown:  50 * time.Millisecond,
		Transport:        &faults.Transport{Inj: inj, Site: "transport/s0"},
	})
	req := server.Request{Query: "E(x,y)"}
	for i := 0; i < 3; i++ {
		if _, err := cl.Do(ctx, req); err == nil {
			t.Fatalf("request %d: injected transport failure did not surface", i)
		}
	}
	// The rule is exhausted — the wire is healthy again — but the open
	// circuit fails fast without finding that out.
	if _, err := cl.Do(ctx, req); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open circuit: %v, want ErrBreakerOpen", err)
	}
	bs := cl.BreakerStates()
	if len(bs) != 1 || bs[0].State != "open" || bs[0].Opens != 1 {
		t.Fatalf("breaker state = %+v, want open with opens=1", bs)
	}
	// After the cooldown the half-open probe goes through and closes it.
	time.Sleep(60 * time.Millisecond)
	if _, err := cl.Do(ctx, req); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if bs := cl.BreakerStates(); bs[0].State != "closed" {
		t.Fatalf("breaker after recovery = %+v, want closed", bs[0])
	}
}

// TestBreakerIgnoresCallerCancel pins what the breaker counts: a call
// its own caller abandoned mid-flight — cancelled, or hedged away — says
// nothing about the endpoint, so any number of them leave the circuit
// closed and the failure run at zero, buffered and streamed; the client's
// own per-call timeout is still a failure; and an abandoned half-open
// probe hands the probe slot to the next request instead of leaving the
// circuit waiting on an outcome that will never be recorded.
func TestBreakerIgnoresCallerCancel(t *testing.T) {
	bg := context.Background()
	var hang atomic.Bool
	entered := make(chan struct{}, 64) // never blocks a handler: far more than the calls below
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hang.Load() {
			// The server notices its client going away only once the
			// request body has been read.
			io.Copy(io.Discard, r.Body)
			entered <- struct{}{}
			<-r.Context().Done()
			return
		}
		io.WriteString(w, "{}")
	}))
	defer srv.Close()
	req := server.Request{Query: "E(x,y)"}
	state := func(cl *Client) BreakerState { return cl.BreakerStates()[0] }
	// abandon starts call, cancels its ctx once the endpoint holds the
	// request, and returns what the call answered.
	abandon := func(call func(ctx context.Context) error) error {
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- call(ctx) }()
		select {
		case <-entered:
			cancel()
			return <-done
		case err := <-done: // never reached the endpoint
			return err
		}
	}
	do := func(cl *Client) func(context.Context) error {
		return func(ctx context.Context) error { _, err := cl.Do(ctx, req); return err }
	}
	stream := func(cl *Client) func(context.Context) error {
		return func(ctx context.Context) error {
			_, err := cl.Stream(ctx, req, func([]string) {}, func([]int64) bool { return true })
			return err
		}
	}

	cl := NewClient(srv.URL, ClientConfig{Timeout: 10 * time.Second, retries: -1, backoff: -1, breakerThreshold: 2})
	hang.Store(true)
	for i := 0; i < 3; i++ {
		for name, call := range map[string]func(context.Context) error{"do": do(cl), "stream": stream(cl)} {
			if err := abandon(call); !errors.Is(err, context.Canceled) {
				t.Fatalf("abandoned %s %d: %v, want context.Canceled", name, i, err)
			}
		}
	}
	if bs := state(cl); bs.State != "closed" || bs.ConsecutiveFailures != 0 || bs.Opens != 0 {
		t.Fatalf("after six abandoned calls: %+v, want closed with no failures", bs)
	}

	// The client's own timeout is not the caller's ctx: it still counts.
	slow := NewClient(srv.URL, ClientConfig{Timeout: 20 * time.Millisecond, retries: -1, backoff: -1, breakerThreshold: 2})
	for i := 0; i < 2; i++ {
		if _, err := slow.Do(bg, req); err == nil {
			t.Fatalf("call %d against a hung endpoint answered", i)
		}
	}
	if bs := state(slow); bs.State != "open" || bs.Opens != 1 {
		t.Fatalf("after two per-call timeouts: %+v, want open", bs)
	}

	// An abandoned half-open probe gives the slot back.
	inj := faults.New(7).Add(faults.Rule{Site: "transport/s0/query", P: 1, Limit: 2})
	probed := NewClient(srv.URL, ClientConfig{
		Timeout: 10 * time.Second, retries: -1, backoff: -1,
		breakerThreshold: 2, breakerCooldown: 20 * time.Millisecond,
		Transport: &faults.Transport{Inj: inj, Site: "transport/s0"},
	})
	for i := 0; i < 2; i++ {
		if _, err := probed.Do(bg, req); err == nil {
			t.Fatalf("request %d: injected transport failure did not surface", i)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if err := abandon(do(probed)); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned probe: %v, want context.Canceled", err)
	}
	if bs := state(probed); bs.State != "open" || bs.Opens != 1 {
		t.Fatalf("after an abandoned probe: %+v, want open, opened once", bs)
	}
	hang.Store(false)
	if _, err := probed.Do(bg, req); err != nil {
		t.Fatalf("probe after an abandoned one: %v", err)
	}
	if bs := state(probed); bs.State != "closed" {
		t.Fatalf("after the probe answered: %+v, want closed", bs)
	}
}
