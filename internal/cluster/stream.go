package cluster

import (
	"context"
	"errors"
	"sync"

	"repro/internal/server"
)

// streamMergeBuffer is the per-shard row buffer of the stream merge: a
// shard whose next root blocks are not yet due keeps producing this far
// ahead instead of lock-stepping with the merge head.
const streamMergeBuffer = 64

// shardStream is one producer of the k-way merge. sum and err are
// written by the producer goroutine before done closes and read only
// after it — the close is the publication barrier.
//
// Rows cross from the producer to the merge in blocks, not one by one:
// the producer copies each row onto the pending block (q) under mu, and
// the merge, once it has used up its current block, swaps the whole
// pending block out for it — however many rows it holds, one row or
// streamMergeBuffer. So a sparse shard's row is ready to merge the
// moment it is decoded, while a dense shard costs one handoff per block;
// the two blocks' slabs are reused for the whole stream.
type shardStream struct {
	shard  int
	cancel context.CancelFunc
	hdr    chan []string
	done   chan struct{}
	sum    server.StreamSummary
	err    error

	mu    sync.Mutex
	cond  sync.Cond // q gained rows, q was taken, or the producer ended
	q     rowBlock  // decoded rows the merge has not taken yet
	ended bool      // the producer's scan returned; q holds its last rows

	// blk, next, head and ok are merge-loop state, touched only by the
	// coordinator: the block being merged, its next row, and the head.
	blk  rowBlock
	next int
	head []int64
	ok   bool
}

// rowBlock is a run of rows in one slab: row i is vals[ends[i-1]:ends[i]].
type rowBlock struct {
	vals []int64
	ends []int
}

func (b *rowBlock) row(i int) []int64 {
	lo := 0
	if i > 0 {
		lo = b.ends[i-1]
	}
	return b.vals[lo:b.ends[i]:b.ends[i]]
}

// openStream starts shard i's producer: its scan runs ahead of the merge
// by up to streamMergeBuffer rows, until the stream ends or stop.
func (c *Coordinator) openStream(ctx context.Context, i int, req server.Request) *shardStream {
	ctx, cancel := context.WithCancel(ctx)
	s := &shardStream{
		shard:  i,
		cancel: cancel,
		hdr:    make(chan []string, 1),
		done:   make(chan struct{}),
	}
	s.cond.L = &s.mu
	go func() {
		// A producer waiting for room must see its stream cancelled.
		unhook := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.sum, s.err = c.shards[i].Stream(ctx, req,
			func(order []string) { s.hdr <- order },
			func(mu []int64) bool {
				s.mu.Lock()
				defer s.mu.Unlock()
				for len(s.q.ends) >= streamMergeBuffer {
					if ctx.Err() != nil {
						return false
					}
					s.cond.Wait()
				}
				s.q.vals = append(s.q.vals, mu...)
				s.q.ends = append(s.q.ends, len(s.q.vals))
				s.cond.Signal()
				return true
			})
		unhook()
		s.mu.Lock()
		s.ended = true
		s.cond.Signal()
		s.mu.Unlock()
		close(s.hdr)
		close(s.done)
	}()
	return s
}

// take waits for the producer's next block and swaps it in as the one
// being merged; false once the producer has ended with nothing left.
func (s *shardStream) take() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.q.ends) == 0 && !s.ended {
		s.cond.Wait()
	}
	s.q, s.blk = rowBlock{s.blk.vals[:0], s.blk.ends[:0]}, s.q
	s.next = 0
	s.cond.Signal() // the producer may be waiting for room
	return len(s.blk.ends) > 0
}

// stop cancels the producer's scan and waits for its goroutine.
func (s *shardStream) stop() {
	s.cancel()
	<-s.done
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
// The snapshot handshake is the buffered one (fanout): every shard's
// stream request carries the vector expected of it, a shard standing
// elsewhere refuses before its header line, and since no row reaches
// the consumer until every routed shard has announced its header, a
// refusal is retried — or fails the stream with ErrSnapshotMoved — with
// nothing delivered. A shard that streams, streams the snapshot it
// pinned at the expected vector, so nothing is left to certify after
// the last row.
//
// A shard death mid-stream normally fails the stream the moment the
// merge reaches the dead head (the remaining scans are cancelled and
// drained before StreamCtx returns — no goroutine outlives it). With
// req.AllowPartial, a tolerable death instead marks the shard missing
// and the merge continues over the survivors: the delivered sequence is
// then the exact merge of the surviving partitions (plus the dead
// shard's already-delivered prefix), and the summary says so.
func (c *Coordinator) StreamCtx(ctx context.Context, req server.Request, header func(order []string), row func(mu []int64) bool) (server.StreamSummary, error) {
	ctx, cancel, req, rt, err := c.resolve(ctx, req)
	defer cancel()
	if err != nil {
		return server.StreamSummary{}, err
	}
	partial := req.AllowPartial

	// finish stamps the degraded-mode outcome on a completed merge.
	finish := func(sum server.StreamSummary) server.StreamSummary {
		if names := c.lost(rt); names != nil {
			sum.Partial, sum.Missing = true, names
		}
		return sum
	}

	if len(rt.live) == 1 {
		// No merge, so no cross-shard order constraint, and the one shard
		// streams straight into the consumer's callbacks. A death
		// mid-single-stream has no survivors to continue over, so it
		// surfaces as the error it is.
		hdr := func(order []string) {
			if rt.order == nil {
				c.routes.learn(rt.key, order)
			}
			if header != nil {
				header(order)
			}
		}
		var sum server.StreamSummary
		err := c.fanout(ctx, rt, "stream", partial, func(ctx context.Context, i int, want map[string]uint64) error {
			sreq := req
			sreq.IfVersions = want
			var err error
			sum, err = c.shards[i].Stream(ctx, sreq, hdr, row)
			return err
		})
		if err != nil {
			return sum, err
		}
		c.queries.Add(1)
		return finish(sum), nil
	}

	// Header barrier: a successful shard stream announces its variable
	// order before its first row, so waiting on every header (or the
	// stream's early death) costs no row latency and lets a snapshot
	// refusal be retried, and order divergence fail the stream, before
	// anything is delivered. Under allow_partial a shard dying at the
	// barrier is dropped instead — nothing of it was delivered yet.
	// streams and orders are indexed by shard; a retried fan-out reaps the
	// refused round's producer before opening the next.
	streams := make([]*shardStream, len(c.shards))
	orders := make([][]string, len(c.shards))
	// Every exit path cancels the in-flight scans and waits for the
	// producers — no goroutine outlives the merge. In particular, a
	// mid-stream shard death that fails the merge cancels the surviving
	// scans here, promptly, instead of letting them stream to nowhere.
	defer func() {
		for _, s := range streams {
			if s != nil {
				s.stop()
			}
		}
	}()
	err = c.fanout(ctx, rt, "stream", partial, func(fctx context.Context, i int, want map[string]uint64) error {
		if s := streams[i]; s != nil {
			s.stop()
		}
		sreq := req
		sreq.IfVersions = want
		s := c.openStream(ctx, i, sreq)
		streams[i] = s
		select {
		case order, ok := <-s.hdr:
			if ok {
				orders[i] = order
				return nil
			}
			<-s.done
			if s.err == nil {
				return errors.New("stream ended before announcing its variable order")
			}
			return s.err
		case <-fctx.Done():
			return fctx.Err() // a sibling failed the barrier
		}
	})
	if err != nil {
		return server.StreamSummary{}, err
	}
	live := make([]*shardStream, len(rt.live))
	liveOrders := make([][]string, len(rt.live))
	for j, i := range rt.live {
		live[j], liveOrders[j] = streams[i], orders[i]
	}
	order, err := c.checkOrders(rt, rt.live, liveOrders)
	if err != nil {
		return server.StreamSummary{}, err
	}
	if header != nil {
		header(order)
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
		if s.next < len(s.blk.ends) || s.take() {
			s.head, s.ok = s.blk.row(s.next), true
			s.next++
			return nil
		}
		s.head, s.ok = nil, false
		<-s.done
		if s.err == nil {
			return nil
		}
		err := shardErr(c.shards[s.shard], "stream", s.err)
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
			// as a fact, exactly as Engine.StreamCtx decides it.
			sum.Truncated = true
			c.queries.Add(1)
			return finish(sum), nil
		}
		sum.Count++
		if !row(live[best].head) {
			return finish(sum), nil // consumer stop: normal completion
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
	c.queries.Add(1)
	return finish(sum), nil
}
