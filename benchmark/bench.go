package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // length of the measured window
	trace   bool
	scratch string // parent of the temp dir the store measurements use
	// scale shrinks the generated graphs; only the smoke test sets it
	// below 1.
	scale float64
}

const (
	warmCycles = 2
	// setups is how many times a timed run sets the workload up; setup_s
	// is the median, and the last set-up is the one measured.
	setups = 5
	// maxFailuresShown bounds the failed requests a report quotes.
	maxFailuresShown = 5
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload produced.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
	// Extra holds numbers shown beside the contract's metrics that
	// BENCHMARK.json does not list: the tail latencies, which no bound the
	// contract allows holds on a shared host, and those that exist on one
	// workload only.
	Extra     map[string]metric `json:"extra,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	// What was actually run, so two result files can be checked for
	// like-for-like: the cycle, the window and the sample counts.
	CycleRequests int            `json:"cycle_requests"`
	Cycles        int            `json:"cycles"`
	WindowSeconds float64        `json:"window_seconds"`
	Samples       map[string]int `json:"samples"`
	Edges         map[string]int `json:"edges"`
	// PerType is a traced run's median microseconds per request type and
	// span name.
	PerType map[string]map[string]float64 `json:"per_type_us,omitempty"`

	spans []span // a traced run's spans, for -trace-out
}

func (rep *report) fail(r *request, msg string) {
	rep.Failed++
	if len(rep.Failures) < maxFailuresShown {
		rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s", r.body, msg))
	}
}

// env is one set-up workload: generated input, served deployment and the
// connected client.
type env struct {
	inst *instance
	dep  *deployment
	cl   *client
	reqs int64 // requests sent, the source of request ids
}

func (e *env) close() error {
	e.cl.close()
	return e.dep.close()
}

// setUp generates the workload's input, computes the expected answers,
// builds and serves the engines and runs the warm-up cycles.
func setUp(ctx context.Context, s spec, cfg config, tr *tracer) (e *env, err error) {
	inst := s.build(workloadRNG(cfg.seed, s.name), cfg.scale)
	if err := fillExpectations(inst); err != nil {
		return nil, err
	}
	dep, err := deploy(inst.db, inst.shards, tr)
	if err != nil {
		return nil, err
	}
	e = &env{inst: inst, dep: dep, cl: newClient(ctx, inst, dep.front.url, tr)}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	// A wrong answer during warm-up is as fatal as one in the window.
	e.cl.warmingUp = true
	defer func() { e.cl.warmingUp = false }()
	for i := 0; i < warmCycles; i++ {
		var bad error
		e.runCycle(func(r *request, res result) {
			if res.failure != "" && bad == nil {
				bad = fmt.Errorf("warm-up request %s: %s", r.body, res.failure)
			}
		})
		if bad != nil {
			return e, bad
		}
		if err := ctx.Err(); err != nil {
			return e, err
		}
	}
	return e, nil
}

// runCycle sends the cycle once, in order.
func (e *env) runCycle(each func(r *request, res result)) {
	for i := range e.inst.cycle {
		r := &e.inst.cycle[i]
		e.reqs++
		each(r, e.cl.do(r, e.reqs))
	}
}

// runFor repeats whole cycles until d has passed. It returns each
// cycle's wall and CPU time in ms, and the wall time of all of them. With
// a sliceEnd, that is called with the number of cycles run so far after
// every sliceLen or more of whole cycles and after the last cycle; what it
// spends is in no cycle's time.
func (e *env) runFor(ctx context.Context, d time.Duration, each func(r *request, res result), sliceEnd func(cycles int)) (cycleWall, cycleCPU []float64, wall time.Duration) {
	// Sized so they do not grow while a timed run counts allocations.
	cycleWall = make([]float64, 0, 1<<14)
	cycleCPU = make([]float64, 0, 1<<14)
	start := time.Now()
	sliceStart, sliced := start, 0
	for time.Since(start) < d && ctx.Err() == nil {
		c0, k0 := time.Now(), cpuTime()
		e.runCycle(each)
		cycleWall = append(cycleWall, ms(time.Since(c0)))
		cycleCPU = append(cycleCPU, ms(cpuTime()-k0))
		if sliceEnd != nil && time.Since(sliceStart) >= sliceLen {
			sliceEnd(len(cycleWall))
			sliceStart, sliced = time.Now(), len(cycleWall)
		}
	}
	if sliceEnd != nil && sliced < len(cycleWall) {
		sliceEnd(len(cycleWall))
	}
	return cycleWall, cycleCPU, time.Since(start)
}

// offHeap returns an empty slice with room for n samples outside the Go
// heap, and the function that gives the memory back. On the heap,
// point_lookup's samples were several times what its engine keeps alive:
// they were most of live_heap_mb, and by raising the collector's target they
// made collections rarer than the engine alone would see.
func offHeap(n int) ([]float64, func(), error) {
	n = max(n, 1)
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("sample buffer: %w", err)
	}
	free := func() { _ = syscall.Munmap(mem) } // nothing to do about a failed unmap on the way out
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), n)[:0], free, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func newReport(s spec, cfg config, inst *instance) *report {
	rep := &report{
		Workload: s.name, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Edges: map[string]int{},
		CycleRequests: len(inst.cycle),
	}
	for _, name := range inst.db.Names() {
		if rel, err := inst.db.Get(name); err == nil {
			rep.Edges[name] = rel.Len()
		}
	}
	return rep
}

// timedRun is the untraced run that produces the end-to-end metrics.
func timedRun(ctx context.Context, s spec, cfg config) (*report, error) {
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		ref, start := hostRef(s.ref), time.Now()
		var err error
		if e, err = setUp(ctx, s, cfg, nil); err != nil {
			return nil, err
		}
		took := time.Since(start).Seconds()
		setupTimes = append(setupTimes, took*hostFactor(ref, hostRef(s.ref)))
	}
	defer e.close()
	rep := newReport(s, cfg, e.inst)

	// Sized for the window so that the samples stay where they are:
	// point_lookup, the fastest workload, answers ≈25 000 requests a second
	// here.
	queryMS, free, err := offHeap(int(cfg.seconds * 40_000))
	if err != nil {
		return nil, err
	}
	defer free()
	updateMS := make([]float64, 0, int(cfg.seconds*400))
	var accesses, compactions int64
	record := func(r *request, res result) {
		rep.Attempted++
		if res.compacted {
			compactions++
		}
		if res.failure != "" {
			rep.fail(r, res.failure)
			return
		}
		if r.update {
			updateMS = append(updateMS, ms(res.latency))
		} else {
			queryMS = append(queryMS, ms(res.latency))
			accesses += res.accesses
		}
	}

	// A mark is the end of a slice of the window: how many cycles, query
	// and update latencies precede it, and the host's slowdown there
	// (host.go). The first mark is the window's start.
	type mark struct {
		cycles, queries, updates int
		ref                      float64
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	marks := make([]mark, 1, int(window/sliceLen)+2)
	sliceEnd := func(cycles int) {
		marks = append(marks, mark{cycles, len(queryMS), len(updateMS), hostRef(s.ref)})
	}

	runtime.GC()
	var before, after, settled runtime.MemStats
	runtime.ReadMemStats(&before)
	kernel := refAllocs
	marks[0].ref = hostRef(s.ref)
	cycleWall, cycleCPU, wall := e.runFor(ctx, window, record, sliceEnd)
	cycles := len(cycleWall)
	runtime.ReadMemStats(&after)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	perCycle := float64(len(e.inst.cycle))
	rawRPS := perCycle / median(cycleWall) * 1000
	factors := make([]float64, 0, len(marks))
	for i, m := range marks[1:] {
		prev := marks[i]
		f := hostFactor(prev.ref, m.ref)
		factors = append(factors, f)
		scale(cycleWall[prev.cycles:m.cycles], f)
		scale(cycleCPU[prev.cycles:m.cycles], f)
		scale(queryMS[prev.queries:m.queries], f)
		scale(updateMS[prev.updates:m.updates], f)
	}

	n := float64(rep.Attempted)
	sort.Float64s(queryMS)
	sort.Float64s(updateMS)
	rep.Cycles, rep.WindowSeconds = cycles, wall.Seconds()
	rep.Samples["query_latencies"], rep.Samples["update_latencies"] = len(queryMS), len(updateMS)
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	// Throughput and CPU come from the median cycle, not the window's
	// totals: on shared cores a burst of interference then costs the few
	// cycles it hits instead of moving the whole run. Every time here is
	// host-corrected.
	set("throughput_rps", perCycle/median(cycleWall)*1000, "1/s")
	set("latency_p50_ms", quantile(queryMS, 0.50), "ms")
	set("accesses_per_req", float64(accesses)/n, "count")
	set("cpu_ms_per_req", median(cycleCPU)/perCycle, "ms")
	// Less what the reference kernel allocated between the two readings.
	set("allocs_per_req", float64(after.Mallocs-before.Mallocs-(refAllocs.objects-kernel.objects))/n, "count")
	set("alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc-(refAllocs.bytes-kernel.bytes))/1024/n, "KiB")
	set("setup_s", median(setupTimes), "s")
	rep.Extra = map[string]metric{
		"latency_p95_ms": {quantile(queryMS, 0.95), "ms"},
		"latency_p99_ms": {quantile(queryMS, 0.99), "ms"},
		// What the correction did: the median slice's factor, and the
		// throughput as the clock read it.
		"host_factor":        {median(factors), "ratio"},
		"raw_throughput_rps": {rawRPS, "1/s"},
	}
	if len(updateMS) > 0 {
		rep.Extra["update_latency_p50_ms"] = metric{quantile(updateMS, 0.50), "ms"}
		rep.Extra["update_latency_p95_ms"] = metric{quantile(updateMS, 0.95), "ms"}
		rep.Extra["compactions_per_cycle"] = metric{float64(compactions) / float64(cycles), "count"}
	}
	// Twice: what a finalizer holds (closed connections' descriptors) is
	// only freed by the collection after the one that ran it.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&settled)
	set("live_heap_mb", float64(settled.HeapAlloc)/(1<<20), "MiB")
	return rep, nil
}
