// Command benchmark is the repository's benchmark: it serves the real
// HTTP handlers of internal/server and internal/cluster on loopback
// listeners inside this process, drives them from one closed-loop client,
// checks every answer against independently computed ones, and prints
// end-to-end metrics (-trace 0) or per-layer metrics (-trace 1) by name
// and unit. It starts no other process. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists, in BENCHMARK.json's order, the metrics a -trace 0 run
// reports on its result line.
var endToEnd = []string{
	"throughput_rps", "latency_p50_ms", "accesses_per_req", "cpu_ms_per_req",
	"allocs_per_req", "alloc_kb_per_req", "live_heap_mb", "setup_s",
}

// grace is how long past -timeout the process may spend unwinding before
// the watchdog exits for it.
const grace = 15 * time.Second

// procs is the run's GOMAXPROCS. With one closed-loop client at most one
// goroutine is runnable at a time, bar the collector, the workers: 2
// requests and the two shards; on one processor a reply wakes its reader
// without crossing to the sandbox's second shared core, which is what made
// the same code's latencies differ by a quarter between busy and quiet hours
// of the host. The price: parallel parts run one after the other.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloads = fs.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed      = fs.Int64("seed", 1, "seed of every generated input; confirm a claim on a seed other than the one it was tuned on")
		seconds   = fs.Float64("seconds", 17, "length of each workload's measured window")
		trace     = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut  = fs.String("trace-out", "", "write the traced run's spans to this file as JSON lines")
		jsonOut   = fs.String("json", "", "write the full reports to this file")
		timeout   = fs.Duration("timeout", 5*time.Minute, "cancel everything and exit 2 after this long")
		scratch   = fs.String("scratch", "", "directory for the store measurements' temp dir (default: the system's)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments, non-positive -seconds, or -trace other than 0 or 1")
		return 2
	}
	var chosen []spec
	if *workloads == "" {
		chosen = specs
	}
	for _, name := range strings.Split(*workloads, ",") {
		if name == "" {
			continue
		}
		s, ok := specByName(name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		chosen = append(chosen, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// Should a query ignore the cancelled context, do not outlive the
	// deadline by more than the grace period.
	watchdog := time.AfterFunc(*timeout+grace, func() {
		fmt.Fprintln(stderr, "benchmark: watchdog: still running past -timeout, exiting")
		os.Exit(2)
	})
	defer watchdog.Stop()

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: *scratch, scale: 1}
	var reports []*report
	for _, s := range chosen {
		run := timedRun
		if cfg.trace {
			run = tracedRun
		}
		rep, err := run(ctx, s, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", s.name, err)
			if errors.Is(err, context.DeadlineExceeded) {
				return 2
			}
			return 1
		}
		reports = append(reports, rep)
		printReport(stdout, rep)
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, reports); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	failed := false
	for _, rep := range reports {
		failed = failed || rep.Failed > 0
	}
	if failed {
		return 1
	}
	return 0
}

// resultLine is the object the driver reads from the last line of
// standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printReport writes what was run, one "workload metric value unit" line
// per metric, any failed requests, and the result line.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v cycle_requests=%d cycles=%d window_s=%.3f attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.CycleRequests, rep.Cycles, rep.WindowSeconds, rep.Attempted, rep.Failed)
	fmt.Fprintf(w, "# %s tuples=%v samples=%v\n", rep.Workload, rep.Edges, rep.Samples)
	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
	names := endToEnd
	if rep.Trace {
		names = nil
		for name := range rep.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", rep.Workload, name, m.Value, m.Unit)
	}
	extra := make([]string, 0, len(rep.Extra))
	for name := range rep.Extra {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%s %s %v %s\n", rep.Workload, name, rep.Extra[name].Value, rep.Extra[name].Unit)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "# %s FAILED %s\n", rep.Workload, f)
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", data)
}
