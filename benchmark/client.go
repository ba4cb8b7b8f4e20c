package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/server"
)

// client is the benchmark's one closed-loop caller: it sends a request
// on one keep-alive connection, reads the whole reply, checks it, and
// only then sends the next.
type client struct {
	ctx  context.Context
	inst *instance
	hc   *http.Client
	rt   *http.Transport
	base string
	buf  bytes.Buffer
	tr   *tracer // nil: no client spans
	// warmingUp suspends the plan-cache assertion, which only holds once
	// the caches are warm.
	warmingUp bool
}

func newClient(ctx context.Context, inst *instance, base string, tr *tracer) *client {
	rt := &http.Transport{MaxIdleConnsPerHost: 1}
	return &client{ctx: ctx, inst: inst, hc: &http.Client{Transport: rt}, rt: rt, base: base, tr: tr}
}

func (c *client) close() { c.rt.CloseIdleConnections() }

// result is one request's outcome as the metrics need it.
type result struct {
	latency  time.Duration // just before the write to the last body byte
	accesses int64         // stats.counters trie+hash+tuple accesses
	// compacted says an update crossed the store's patch-vs-rebuild
	// crossover.
	compacted bool
	failure   string // "" when the reply was right
}

// do sends r to base and checks the reply against r.want and the
// workload's design assertions.
func (c *client) do(r *request, reqID int64) result {
	path := "/query"
	if r.update {
		path = "/update"
	}
	hr, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.base+path, bytes.NewReader(r.body))
	if err != nil {
		return result{failure: err.Error()}
	}
	hr.Header.Set("Content-Type", "application/json")
	var spanID int64
	traced := c.tr != nil && c.tr.on.Load()
	if traced {
		spanID = c.tr.nextID()
		c.tr.req.Store(reqID)
		c.tr.client.Store(spanID)
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return result{failure: err.Error()}
	}
	_, err = c.buf.ReadFrom(resp.Body)
	end := time.Now()
	resp.Body.Close()
	res := result{latency: end.Sub(start)}
	if traced {
		c.tr.add(span{
			ID: spanID, Req: reqID, Name: spanClient, Type: c.inst.types[r.typ], typ: r.typ,
			StartNS: c.tr.since(start), EndNS: c.tr.since(end), Bytes: int64(c.buf.Len()),
		})
	}
	switch {
	case err != nil:
		res.failure = "reading body: " + err.Error()
	case resp.StatusCode/100 != 2:
		res.failure = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	case r.update:
		var ur server.UpdateResult
		if err := json.Unmarshal(c.buf.Bytes(), &ur); err != nil {
			res.failure = "decoding update result: " + err.Error()
		} else if !ur.Applied {
			res.failure = "update not applied"
		}
		res.compacted = ur.Compacted
	default:
		res.failure = c.checkQuery(r, &res)
	}
	return res
}

// checkQuery decodes the buffered reply (JSON, or NDJSON for streams)
// and compares it with the expected answer.
func (c *client) checkQuery(r *request, res *result) string {
	var got answer
	if r.query.Mode == "stream" {
		if msg := decodeStream(c.buf.Bytes(), &got); msg != "" {
			return msg
		}
	} else {
		var resp server.Response
		if err := json.Unmarshal(c.buf.Bytes(), &resp); err != nil {
			return "decoding response: " + err.Error()
		}
		got = answerOf(&resp)
		k := resp.Stats.Counters
		res.accesses = k.Total()
		if c.inst.noCacheLookups && k.CacheHits+k.CacheMisses != 0 {
			return fmt.Sprintf("%d cache lookups on a workload that must make none", k.CacheHits+k.CacheMisses)
		}
		if want := c.inst.planCached; want != nil && !c.warmingUp && resp.Stats.PlanCached != *want {
			return fmt.Sprintf("plan_cached %v, want %v", resp.Stats.PlanCached, *want)
		}
	}
	return r.want.check(r, &got)
}

// decodeStream reads the NDJSON framing of "mode": "stream": an order
// line, row lines, then a summary (or error) line.
func decodeStream(body []byte, got *answer) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	done := false
	for {
		var line struct {
			Order   []string `json:"order"`
			Row     []int64  `json:"row"`
			Summary *struct {
				Count     int64 `json:"count"`
				Truncated bool  `json:"truncated"`
			} `json:"summary"`
			Error string `json:"error"`
		}
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return "decoding stream: " + err.Error()
		}
		switch {
		case line.Error != "":
			return "stream error: " + line.Error
		case line.Summary != nil:
			got.count, got.truncated, done = line.Summary.Count, line.Summary.Truncated, true
		case line.Order != nil:
			got.order = line.Order
		default:
			got.tuples = append(got.tuples, line.Row)
		}
	}
	if !done {
		return "stream ended without a summary"
	}
	return ""
}
