package main

import (
	"fmt"
	"math"

	"repro/internal/cq"
	"repro/internal/leapfrog"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/td"
	"repro/internal/yannakakis"
)

// expectation is the answer one request must return. It is computed in
// set-up by engines that share no cache, registry or patch code with the
// served path: Yannakakis over a min-fill decomposition where the query
// decomposes, vanilla LFTJ over freshly built relations otherwise, and
// LFTJ enumeration for everything that needs tuples.
type expectation struct {
	count int64   // count, eval and stream: |q(D)| (stream: rows delivered)
	value float64 // aggregate sum/min
	// rows holds the hash of every result tuple, in the parsed query's
	// Vars() order; nil when the response carries no tuples.
	rows map[uint64]struct{}
	// sample is the number of tuples the response must carry; full says
	// they are the whole result, so their hashes must sum to rowSum.
	sample    int
	full      bool
	rowSum    uint64
	truncated bool
}

// hashRow mixes one tuple into 64 bits (splitmix64 steps per value).
func hashRow(row []int64) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		h += uint64(v) + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func hasConstants(q *cq.Query) bool {
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if !t.IsVar() {
				return true
			}
		}
	}
	return false
}

// oracleCount is |q(D)| without CLFTJ.
func oracleCount(q *cq.Query, db *relation.DB) (int64, error) {
	if !hasConstants(q) {
		if tree := td.MinFillDecompose(q); tree.N() > 1 {
			return yannakakis.Count(q, db, tree, nil)
		}
	}
	inst, err := leapfrog.Build(q, db, q.Vars(), nil)
	if err != nil {
		return 0, err
	}
	return leapfrog.Count(inst), nil
}

// expect computes r's expected answer over db.
func expect(r *request, db *relation.DB) (expectation, error) {
	q, req := r.parsed, r.query
	var want expectation
	switch req.Mode {
	case "", "count":
		n, err := oracleCount(q, db)
		want.count = n
		return want, err
	}
	inst, err := leapfrog.Build(q, db, q.Vars(), nil)
	if err != nil {
		return want, err
	}
	switch req.Mode {
	case "aggregate":
		// The served weights are float64(v) for every bound value: "sum"
		// adds the product over a tuple, "min" takes the least sum.
		sum, least := 0.0, math.Inf(1)
		leapfrog.Eval(inst, func(mu []int64) bool {
			prod, tot := 1.0, 0.0
			for _, v := range mu {
				prod *= float64(v)
				tot += float64(v)
			}
			sum += prod
			least = math.Min(least, tot)
			return true
		})
		switch req.Semiring {
		case "sum":
			want.value = sum
		case "min":
			want.value = least
		default:
			return want, fmt.Errorf("no oracle for semiring %q", req.Semiring)
		}
	case "eval", "stream":
		want.rows = map[uint64]struct{}{}
		var total int64
		leapfrog.Eval(inst, func(mu []int64) bool {
			h := hashRow(mu)
			want.rows[h] = struct{}{}
			want.rowSum += h
			total++
			return true
		})
		limit := int64(req.Limit)
		if req.Mode == "eval" {
			// eval reports the full count and a sample of limit tuples.
			if limit <= 0 {
				limit = server.DefaultMaxTuples
			}
			want.count = total
		} else {
			// stream stops at the limit and counts what it delivered.
			if limit <= 0 {
				limit = total
			}
			want.count = min(limit, total)
		}
		want.sample = int(min(limit, total))
		want.truncated = total > limit
		want.full = !want.truncated
	default:
		return want, fmt.Errorf("no oracle for mode %q", req.Mode)
	}
	return want, nil
}

// fillExpectations computes every query's expected answer, once per
// distinct (content, oracleKey).
func fillExpectations(inst *instance) error {
	contents, err := inst.contents()
	if err != nil {
		return err
	}
	type key struct {
		content int
		oracle  string
	}
	memo := map[key]expectation{}
	for i := range inst.cycle {
		r := &inst.cycle[i]
		if r.update {
			continue
		}
		k := key{r.content, r.oracleKey}
		want, ok := memo[k]
		if !ok {
			if want, err = expect(r, contents[r.content]); err != nil {
				return fmt.Errorf("expected answer of %q: %w", r.query.Query, err)
			}
			memo[k] = want
		}
		r.want = want
	}
	return nil
}

// answer is what the client read back for one query, in the shape the
// checks need whichever transport framing carried it.
type answer struct {
	count     int64
	value     float64
	order     []string
	tuples    [][]int64
	truncated bool
}

func answerOf(resp *server.Response) answer {
	return answer{count: resp.Count, value: resp.Value, order: resp.Order, tuples: resp.Tuples, truncated: resp.Truncated}
}

// check compares a served answer with the expectation and describes the
// first difference, or returns "".
func (want *expectation) check(r *request, got *answer) string {
	switch r.query.Mode {
	case "aggregate":
		if diff := math.Abs(got.value - want.value); diff > 1e-9*math.Abs(want.value) {
			return fmt.Sprintf("value %v, want %v", got.value, want.value)
		}
		return ""
	}
	if got.count != want.count {
		return fmt.Sprintf("count %d, want %d", got.count, want.count)
	}
	if want.rows == nil {
		return ""
	}
	if len(got.tuples) != want.sample {
		return fmt.Sprintf("%d tuples, want %d", len(got.tuples), want.sample)
	}
	if got.truncated != want.truncated {
		return fmt.Sprintf("truncated %v, want %v", got.truncated, want.truncated)
	}
	// Tuples arrive in the plan's variable order; the oracle hashed them
	// in the parsed query's.
	vars := r.parsed.Vars()
	if len(got.order) != len(vars) {
		return fmt.Sprintf("order %v, want a permutation of %v", got.order, vars)
	}
	at := make(map[string]int, len(got.order))
	for i, v := range got.order {
		at[v] = i
	}
	row := make([]int64, len(vars))
	var sum uint64
	seen := make(map[uint64]struct{}, len(got.tuples))
	for _, t := range got.tuples {
		if len(t) != len(vars) {
			return fmt.Sprintf("tuple %v has %d values, want %d", t, len(t), len(vars))
		}
		for i, v := range vars {
			j, ok := at[v]
			if !ok {
				return fmt.Sprintf("order %v lacks variable %s", got.order, v)
			}
			row[i] = t[j]
		}
		h := hashRow(row)
		if _, ok := want.rows[h]; !ok {
			return fmt.Sprintf("tuple %v (order %v) is not in the result", t, got.order)
		}
		if _, dup := seen[h]; dup {
			return fmt.Sprintf("tuple %v returned twice", t)
		}
		seen[h] = struct{}{}
		sum += h
	}
	if want.full && sum != want.rowSum {
		return "tuple set differs from the full result"
	}
	return ""
}
