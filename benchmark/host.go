package main

import (
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Host-speed correction of the timed run's time metrics.
//
// The sandbox is a virtual machine on a shared host, and how fast it runs
// the same instructions moves by 10-30 % for seconds to minutes at a time
// (/proc/stat shows no steal time: it is contention inside the core and its
// caches, not descheduling). Every time metric follows, and no window the
// contract's budget allows averages it out: the medians of 17 s windows of
// one process spread as widely as those of 5 s windows. What does follow the
// host is a fixed piece of work timed in the same seconds. So the timed run
// cuts its window into slices of whole cycles, times a reference kernel
// between them, and multiplies every time measured in a slice by the
// kernel's nominal time ÷ the mean of its times before and after the slice.
//
// Two kernels, because the host slows two kinds of code by different
// amounts. Tight loops over arrays that fit the caches (the joins) follow
// searchKernel; code with a large footprint that allocates (JSON,
// reflection, maps, plan compilation, the collector) is slowed up to twice
// as much and follows serviceKernel, which searchKernel under-corrects by
// half. A workload names the work most of its request time goes to
// (spec.ref): refService is corrected by serviceKernel; refJoin, where the
// join is most of a request but its caches and results are still allocated
// and collected, by the geometric mean of the two. Measured over 150-200 s of
// each workload, the spread of the 17 s windows' median cycle time fell from
// 5-13 % to 1-6 % and their range from 15-48 % to 2-13 % (README, "Host-speed
// correction").
//
// The kernels belong to the benchmark and use only the standard library, so
// a change to the repository does not move them. serviceKernel allocates;
// what it allocates is counted and taken out of allocs_per_req and
// alloc_kb_per_req.
type refKind int

const (
	refJoin refKind = iota
	refService
)

const (
	// sliceLen is the least time of whole cycles between two kernel timings.
	sliceLen = 200 * time.Millisecond
	// A timing is the fastest of refRuns runs of ≈2.7 ms each, so a run the
	// collector's background worker shared the processor with is dropped.
	// 4 % of a window goes to one kernel, 7 % to both.
	refRuns      = 3
	refSearches  = 25_000
	refDocRounds = 16
)

// What a timing reads on the machine the benchmark was defined on in its
// usual state: the median over all six workloads' timed runs. Corrected
// times are therefore that machine's usual times; on another machine they
// are scaled by a constant.
const (
	searchNominalMS  = 2.74
	serviceNominalMS = 2.70
)

// refTable is 512 KiB of sorted keys: it fits the second-level cache and
// not the first, like the tries' level arrays. An array, so that it lies
// outside the Go heap and live_heap_mb.
var refTable [1 << 16]int64

// refDoc is a ≈2.6 KiB JSON document shaped like a response with tuples.
var refDoc []byte

func init() {
	for i := range refTable {
		refTable[i] = int64(i) * 7
	}
	type item struct {
		ID    int64            `json:"id"`
		Name  string           `json:"name"`
		Tags  []string         `json:"tags"`
		Vals  []float64        `json:"vals"`
		Inner map[string]int64 `json:"inner"`
	}
	items := make([]item, 24)
	for i := range items {
		it := item{ID: int64(i) * 7919, Name: "item-" + strconv.Itoa(i), Inner: map[string]int64{}}
		for j := 0; j < 4; j++ {
			it.Tags = append(it.Tags, "tag"+strconv.Itoa(i*j))
			it.Vals = append(it.Vals, float64(i*j)/3)
			it.Inner["k"+strconv.Itoa(j)] = int64(i + j)
		}
		items[i] = it
	}
	var err error
	refDoc, err = json.Marshal(map[string]any{"items": items, "query": "E(x,y), E(y,z), E(x,z)", "mode": "count"})
	if err != nil {
		panic(err)
	}
}

var refSink int

// searchKernel does refSearches lower-bound searches of refTable for
// xorshift keys. It allocates nothing.
func searchKernel() {
	x := uint64(88172645463325252)
	sum := 0
	for i := 0; i < refSearches; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := int64(x % uint64(len(refTable)*7))
		lo, hi := 0, len(refTable)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if refTable[mid] < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sum += lo
	}
	refSink += sum
}

// serviceKernel does refDocRounds rounds of what a request's service path
// is made of: decode refDoc into maps, encode it again, fill a hash map,
// sort a slice.
func serviceKernel() {
	for round := 0; round < refDocRounds; round++ {
		var doc map[string]any
		if err := json.Unmarshal(refDoc, &doc); err != nil {
			panic(err)
		}
		out, err := json.Marshal(doc)
		if err != nil {
			panic(err)
		}
		seen := make(map[int64]int64, 64)
		keys := make([]int, 0, 512)
		x := uint64(len(out))
		for i := 0; i < 512; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			seen[int64(x>>40)] = int64(i)
			keys = append(keys, int(x>>33))
		}
		sort.Ints(keys)
		refSink += keys[17] + len(seen) + len(strconv.Itoa(keys[3]))
	}
}

// refAllocs is what the kernels have allocated so far.
var refAllocs struct{ objects, bytes uint64 }

// timeKernel returns the fastest of refRuns runs, in ms.
func timeKernel(kernel func()) float64 {
	best := math.Inf(1)
	for i := 0; i < refRuns; i++ {
		start := time.Now()
		kernel()
		best = min(best, ms(time.Since(start)))
	}
	return best
}

// hostRef times the kernels of kind and returns how many times slower
// than nominal they ran.
func hostRef(kind refKind) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	slowdown := timeKernel(serviceKernel) / serviceNominalMS
	runtime.ReadMemStats(&after)
	refAllocs.objects += after.Mallocs - before.Mallocs
	refAllocs.bytes += after.TotalAlloc - before.TotalAlloc
	if kind == refJoin {
		slowdown = math.Sqrt(slowdown * timeKernel(searchKernel) / searchNominalMS)
	}
	return slowdown
}

// hostFactor is what a time measured between two hostRef readings is
// multiplied by.
func hostFactor(refBefore, refAfter float64) float64 {
	return 2 / (refBefore + refAfter)
}

func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}
