package cluster

import (
	"context"
	"fmt"

	"repro/internal/server"
)

// streamMergeBuffer is the per-shard row buffer of the stream merge: a
// shard whose next root blocks are not yet due keeps producing this far
// ahead instead of lock-stepping with the merge head.
const streamMergeBuffer = 64

// shardStream is one producer of the k-way merge. sum and err are
// written by the producer goroutine before done closes and read only
// after it — the close is the publication barrier.
type shardStream struct {
	shard int
	hdr   chan []string
	rows  chan []int64
	done  chan struct{}
	sum   server.StreamSummary
	err   error
	// head/ok are merge-loop state, touched only by the coordinator.
	head []int64
	ok   bool
}

// StreamCtx executes one streaming eval across the fleet: every routed
// shard streams concurrently, and the coordinator k-way merges the
// per-shard rows by root key — exactness again rests on the partition
// invariant (disjoint root partitions, each shard root-ascending), so
// the merged row sequence is byte-identical to a single engine
// streaming the union. header fires once with the common variable
// order, then row per merged tuple (reused slice — copy to retain;
// return false to stop, which cancels every shard's scan). Limits match
// Engine.StreamCtx: a positive limit stops the merged enumeration early
// with Truncated set; 0 or negative streams everything.
//
// The snapshot handshake brackets the stream: versions are collected
// before fan-out and re-checked after the last row, and a moved vector
// fails the stream with ErrSnapshotMoved — rows already delivered
// cannot be unsent, so the error arrives as the stream's terminal
// status (the NDJSON trailer over HTTP).
//
// A shard death mid-stream normally fails the stream the moment the
// merge reaches the dead head (the remaining scans are cancelled and
// drained before StreamCtx returns — no goroutine outlives it). With
// req.AllowPartial, a tolerable death instead marks the shard missing
// and the merge continues over the survivors: the delivered sequence is
// then the exact merge of the surviving partitions (plus the dead
// shard's already-delivered prefix), and the summary says so.
func (c *Coordinator) StreamCtx(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error) {
	req, rt, err := c.resolve(ctx, req, "stream")
	if err != nil {
		return server.StreamSummary{}, err
	}
	partial, idxs := req.AllowPartial, rt.live

	// finish stamps the degraded-mode outcome on a completed merge.
	finish := func(sum server.StreamSummary) server.StreamSummary {
		if names := c.lost(rt); names != nil {
			sum.Partial, sum.Missing = true, names
		}
		return sum
	}

	if len(idxs) == 1 {
		// No merge, so no cross-shard order or snapshot constraints: the
		// one shard's own snapshot pin already makes its stream exact
		// (over its partition — finish marks whether that is the whole
		// route). A death mid-single-stream has no survivors to continue
		// over, so it surfaces as the error it is.
		i := idxs[0]
		hdr := func(order []string) {
			if !rt.nocache {
				c.routes.learn(rt.key, order)
			}
			if header != nil {
				header(order)
			}
		}
		sum, err := c.shards[i].Stream(ctx, req, hdr, row)
		if err != nil {
			return sum, c.shardErr(i, "stream", err)
		}
		c.queries.Add(1)
		return finish(sum), nil
	}

	sctx, cancel := context.WithCancel(ctx)
	streams := make([]*shardStream, len(idxs))
	for j, i := range idxs {
		s := &shardStream{
			shard: i,
			hdr:   make(chan []string, 1),
			rows:  make(chan []int64, streamMergeBuffer),
			done:  make(chan struct{}),
		}
		streams[j] = s
		go func(s *shardStream) {
			s.sum, s.err = c.shards[s.shard].Stream(sctx, req,
				func(order []string) { s.hdr <- order },
				func(mu []int64) bool {
					cp := append([]int64(nil), mu...)
					select {
					case s.rows <- cp:
						return true
					case <-sctx.Done():
						return false
					}
				})
			close(s.rows)
			close(s.hdr)
			close(s.done)
		}(s)
	}
	// Every exit path cancels the in-flight scans and waits for the
	// producers — no goroutine outlives the merge. In particular, a
	// mid-stream shard death that fails the merge cancels the surviving
	// scans here, promptly, instead of letting them stream to nowhere.
	defer func() {
		cancel()
		for _, s := range streams {
			<-s.done
		}
	}()

	// Header barrier: a successful shard stream announces its variable
	// order before its first row, so waiting on every header (or the
	// stream's early death) costs no row latency and lets order
	// divergence fail the stream before anything is delivered. Under
	// allow_partial a shard dying at the barrier is dropped instead —
	// nothing of it was delivered yet.
	var live []*shardStream
	var liveIdxs []int
	var orders [][]string
	for _, s := range streams {
		order, ok := <-s.hdr
		if !ok {
			<-s.done
			err := s.err
			if err == nil {
				err = fmt.Errorf("stream ended before announcing its variable order")
			}
			err = c.shardErr(s.shard, "stream", err)
			if partial && tolerable(ctx, err) {
				rt.lose(s.shard, err)
				continue
			}
			return server.StreamSummary{}, err
		}
		live = append(live, s)
		liveIdxs = append(liveIdxs, s.shard)
		orders = append(orders, order)
	}
	if len(live) == 0 {
		return server.StreamSummary{}, rt.dead
	}
	order, err := c.checkOrders(rt, liveIdxs, orders)
	if err != nil {
		return server.StreamSummary{}, err
	}
	if header != nil {
		header(order)
	}

	// Postflight: the stream wire format carries no version vector (it
	// must stay byte-identical to a single engine's), so consistency is
	// re-checked out of band after the rows, over the shards whose rows
	// were merged. An update landing after a shard's scan finished but
	// before this probe is indistinguishable from one landing mid-scan;
	// the check is conservative and rejects both. A survivor that dies
	// here is NOT dropped even under allow_partial — its rows are
	// already in the merge and can no longer be certified, so the
	// stream fails rather than stand behind them.
	postflight := func() error {
		for _, i := range idxs {
			if rt.missing[i] {
				continue
			}
			post, err := c.shards[i].Versions(ctx, rt.names)
			if err != nil {
				return c.shardErr(i, "versions", err)
			}
			pre := rt.vecs[i]
			for _, name := range rt.names {
				if post[name] != pre[name] {
					c.snapshotRejects.Add(1)
					return fmt.Errorf("%w: shard %s relation %q advanced %d -> %d during the stream",
						ErrSnapshotMoved, c.shards[i].Name(), name, pre[name], post[name])
				}
			}
		}
		return nil
	}

	// K-way merge by root key. advance blocks on the shard's next row
	// and surfaces the shard's death the moment its channel drains — in
	// strict mode that fails the merge right there (the deferred cancel
	// reaps the siblings); under allow_partial a tolerable death marks
	// the shard missing and the merge keeps going without it. The
	// disjoint-partition invariant keeps heads tie-free, and ties (a
	// mispartitioned fleet) break to the lower position so the merge
	// stays deterministic.
	advance := func(s *shardStream) error {
		if s.head, s.ok = <-s.rows; s.ok {
			return nil
		}
		<-s.done
		if s.err == nil {
			return nil
		}
		err := c.shardErr(s.shard, "stream", s.err)
		if partial && tolerable(ctx, err) {
			// The shard's already-delivered prefix stands; the trailer
			// names the loss.
			rt.lose(s.shard, err)
			return nil
		}
		return err
	}
	var sum server.StreamSummary
	for _, s := range live {
		if err := advance(s); err != nil {
			return sum, err
		}
	}
	limit := int64(req.Limit)
	for {
		best := -1
		for j, s := range live {
			if !s.ok {
				continue
			}
			if best == -1 || s.head[0] < live[best].head[0] {
				best = j
			}
		}
		if best == -1 {
			break
		}
		if limit > 0 && sum.Count >= limit {
			// A row beyond the limit exists; the enumeration is truncated
			// as a fact, exactly as Engine.StreamCtx decides it. The
			// delivered prefix is still a merged answer, so it keeps the
			// snapshot guarantee.
			sum.Truncated = true
			if err := postflight(); err != nil {
				return sum, err
			}
			c.queries.Add(1)
			return finish(sum), nil
		}
		sum.Count++
		if !row(live[best].head) {
			return finish(sum), nil // consumer stop: normal completion, no guarantee owed
		}
		if err := advance(live[best]); err != nil {
			return sum, err
		}
	}

	// All live shards drained (their terminal errors already went
	// through advance). A shard that stopped at its own limit proves a
	// row beyond the merged prefix even though no head remains; a shard
	// dropped mid-merge contributes neither truncation nor certainty.
	for _, s := range live {
		if !rt.missing[s.shard] {
			sum.Truncated = sum.Truncated || s.sum.Truncated
		}
	}
	if err := postflight(); err != nil {
		return sum, err
	}
	c.queries.Add(1)
	return finish(sum), nil
}
