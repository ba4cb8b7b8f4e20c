package trie

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/relation"
	"repro/internal/stats"
)

// This file constructs the cascading-vector levels. The relation is
// sorted, so every trie node at depth d is a contiguous row range
// sharing a length-(d+1) prefix; each level is derived from the parent
// level's row boundaries by grouping equal column-d values. The builder
// reads each column through one contiguous gather (instead of a strided
// r.Tuple(i)[d] per row), sizes every level array exactly with a
// counting pass (no append regrowth), and runs the counting and filling
// passes of a large level over independent sibling spans, one chunk per
// core on its own goroutine, with chunk boundaries aligned to node
// starts so the result is bit-identical to a one-chunk build.

// parallelBuildMinRows is the level size below which the parallel
// builder stays sequential: goroutine fan-out costs more than scanning
// a few thousand contiguous rows.
const parallelBuildMinRows = 1 << 14

// Build constructs a trie over the relation. The relation must already be
// in the column order the trie should index (use Relation.Permute first).
// counters may be nil to disable accounting. A level of at least
// parallelBuildMinRows rows is scanned in one chunk per core; smaller
// levels (and small relations) stay on the calling goroutine.
func Build(r *relation.Relation, counters *stats.Counters) *Trie {
	return build(r, counters, runtime.GOMAXPROCS(0))
}

// build is Build with a large level split into up to workers chunks (1:
// the sequential build). The trie is bit-identical at every count; the
// tests and benchmarks that compare counts call it directly.
func build(r *relation.Relation, counters *stats.Counters, workers int) *Trie {
	if counters != nil {
		counters.TrieBuilds++
	}
	t := &Trie{arity: r.Arity(), c: counters}
	n := r.Len()
	k := r.Arity()
	t.levels = make([]level, k)
	if n == 0 || k == 0 {
		for d := range t.levels {
			t.levels[d] = level{start: []int32{0}}
		}
		return t
	}

	data := r.Data()
	col := make([]int64, n)
	// prevRows holds the row boundaries of the depth-(d-1) nodes
	// (virtual root: one node spanning all rows); grouping each span by
	// the column value yields the depth-d nodes and the parent
	// child-offsets.
	prevRows := []int32{0, int32(n)}
	for d := 0; d < k; d++ {
		gatherColumn(col, data, d, k, workers)
		if d == k-1 {
			// Deepest level: tuples are duplicate-free, so every sibling
			// run has length one — the level is the gathered column itself
			// and the parent offsets are the row boundaries verbatim.
			t.levels[d] = level{vals: col, start: make([]int32, n+1)}
			if d > 0 {
				t.levels[d-1].start = prevRows
			}
			break
		}
		vals, rows, parentStart := buildLevel(col, prevRows, workers)
		t.levels[d] = level{vals: vals}
		if d > 0 {
			t.levels[d-1].start = parentStart
		}
		prevRows = rows
	}
	indexRoot(t.levels)
	t.root = t.whole()
	return t
}

// gatherColumn materializes column d of the arity-k flat tuple array
// into dst, so the level scans below run over contiguous memory.
func gatherColumn(dst, data []int64, d, k, workers int) {
	n := len(dst)
	if k == 1 {
		copy(dst, data)
		return
	}
	fill := func(lo, hi int) {
		j := lo*k + d
		for i := lo; i < hi; i++ {
			dst[i] = data[j]
			j += k
		}
	}
	if workers <= 1 || n < parallelBuildMinRows {
		fill(0, n)
		return
	}
	step := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// buildChunk is one contiguous row range of a level build, aligned so
// no trie node straddles two chunks.
type buildChunk struct {
	lo, hi int // row range [lo, hi)
	pi     int // index of the first parent boundary >= lo
	count  int // nodes in the range (pass 1 result)
	off    int // output offset of the first node (prefix sum)
}

// buildLevel groups the rows into depth-d nodes under the parent
// boundaries prevRows: vals/rows receive one entry per node (rows gets
// a trailing n), parentStart the child offset per parent (trailing
// total). Both passes run over node-aligned chunks, in parallel when
// the level is large and workers allow.
func buildLevel(col []int64, prevRows []int32, workers int) (vals []int64, rows []int32, parentStart []int32) {
	n := len(col)
	parents := len(prevRows) - 1
	chunks := chunkLevel(col, n, workers)
	for ci := range chunks {
		c := &chunks[ci]
		lo := c.lo
		c.pi = sort.Search(parents, func(j int) bool { return int(prevRows[j]) >= lo })
	}
	runChunks(chunks, func(c *buildChunk) {
		cnt, pi := 0, c.pi
		for i := c.lo; i < c.hi; i++ {
			if pi < parents && int(prevRows[pi]) == i {
				pi++
			} else if i > 0 && col[i] == col[i-1] {
				continue
			}
			cnt++
		}
		c.count = cnt
	})
	m := 0
	for ci := range chunks {
		chunks[ci].off = m
		m += chunks[ci].count
	}
	vals = make([]int64, m)
	rows = make([]int32, m+1)
	parentStart = make([]int32, parents+1)
	runChunks(chunks, func(c *buildChunk) {
		off, pi := c.off, c.pi
		for i := c.lo; i < c.hi; i++ {
			if pi < parents && int(prevRows[pi]) == i {
				parentStart[pi] = int32(off)
				pi++
			} else if i > 0 && col[i] == col[i-1] {
				continue
			}
			vals[off] = col[i]
			rows[off] = int32(i)
			off++
		}
	})
	rows[m] = int32(n)
	parentStart[parents] = int32(m)
	return vals, rows, parentStart
}

// chunkLevel splits [0, n) into up to workers ranges whose boundaries
// sit on value changes — always node starts, so chunks never split a
// node. One chunk (the sequential path) when the level is small.
func chunkLevel(col []int64, n, workers int) []buildChunk {
	if workers <= 1 || n < parallelBuildMinRows {
		return []buildChunk{{lo: 0, hi: n}}
	}
	chunks := make([]buildChunk, 0, workers)
	step := n / workers
	lo := 0
	for c := 0; c < workers && lo < n; c++ {
		hi := n
		if c < workers-1 && lo+step < n {
			hi = lo + step
			for hi < n && col[hi] == col[hi-1] {
				hi++
			}
		}
		if hi > lo {
			chunks = append(chunks, buildChunk{lo: lo, hi: hi})
		}
		lo = hi
	}
	return chunks
}

// runChunks executes f over every chunk, on goroutines when there is
// more than one.
func runChunks(chunks []buildChunk, f func(c *buildChunk)) {
	if len(chunks) == 1 {
		f(&chunks[0])
		return
	}
	var wg sync.WaitGroup
	for ci := range chunks {
		wg.Add(1)
		go func(c *buildChunk) {
			defer wg.Done()
			f(c)
		}(&chunks[ci])
	}
	wg.Wait()
}
