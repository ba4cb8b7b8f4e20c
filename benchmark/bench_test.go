package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMetrics asserts rep reports exactly the declared metrics, each
// finite and with the declared unit.
func checkMetrics(t *testing.T, rep *report, want []declared, positive bool) {
	t.Helper()
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d: %v", rep.Workload, rep.Attempted, rep.Failed, rep.Failures)
	}
	for _, d := range want {
		m, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rep.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", rep.Workload, d.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", rep.Workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rep.Workload, d.Name, m.Unit, d.Unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		declaredNames := map[string]bool{}
		for _, d := range want {
			declaredNames[d.Name] = true
		}
		for name := range rep.Metrics {
			if !declaredNames[name] {
				t.Errorf("%s: metric %s is not in BENCHMARK.json", rep.Workload, name)
			}
		}
	}
}

// TestSmoke runs every workload, timed and traced, on down-scaled graphs
// and checks the contract with BENCHMARK.json, the workloads' design
// assertions, and that nothing the runs started is left behind.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	if got := strings.Join(c.Command, " "); got != "bash benchmark/run.sh" {
		t.Errorf("command %q", got)
	}
	for i, d := range c.EndToEnd {
		if i >= len(endToEnd) || endToEnd[i] != d.Name {
			t.Errorf("end_to_end[%d] is %s; main.go's list disagrees", i, d.Name)
		}
	}

	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := config{seed: 1, seconds: 0.2, scale: 0.25, scratch: t.TempDir()}
	var urls []string
	for i, s := range specs {
		if c.Workloads[i].Name != s.name || c.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, s.name, s.why)
		}
		rep, err := timedRun(ctx, s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkMetrics(t, rep, c.EndToEnd, true)

		traced := cfg
		traced.trace = true
		rep, err = tracedRun(ctx, s, traced)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		checkMetrics(t, rep, c.PerLayer, false)
		value := func(name string) float64 { return rep.Metrics[name].Value }
		switch s.name {
		case "join_uncached":
			if v := value("core.cache_hit_ratio") + value("core.cached_entries"); v != 0 {
				t.Errorf("join_uncached used the caches: hit ratio + entries = %v", v)
			}
		case "plan_cold":
			if v := value("server.plan_hit_ratio"); v != 0 {
				t.Errorf("plan_cold plan hit ratio %v, want 0", v)
			}
		case "point_lookup":
			if v := value("server.plan_hit_ratio"); v < 0.99 {
				t.Errorf("point_lookup plan hit ratio %v, want >= 0.99", v)
			}
		case "mixed_update":
			if value("trie.registry_patches") == 0 || value("server.update_us") == 0 {
				t.Errorf("mixed_update: no trie patches or no update time recorded")
			}
		case "cluster_fanout":
			if value("cluster.shard_calls_per_req") < 1 || value("cluster.overhead_vs_single") == 0 {
				t.Errorf("cluster_fanout: shard calls %v, overhead %v", value("cluster.shard_calls_per_req"), value("cluster.overhead_vs_single"))
			}
		}

		// One more set-up, to learn the addresses a run listens on.
		e, err := setUp(ctx, s, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, site := range e.dep.sites {
			urls = append(urls, strings.TrimPrefix(site.url, "http://"))
		}
		if err := e.close(); err != nil {
			t.Errorf("%s: close: %v", s.name, err)
		}
	}

	for _, addr := range urls {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections", addr)
		}
	}
	// Connection goroutines notice their closed sockets asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the runs:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// TestSeedsDiffer checks that the seed reaches the generated input and
// that one seed gives one input.
func TestSeedsDiffer(t *testing.T) {
	for _, s := range specs {
		a := s.build(workloadRNG(1, s.name), 0.25)
		b := s.build(workloadRNG(1, s.name), 0.25)
		other := s.build(workloadRNG(2, s.name), 0.25)
		same := func(x, y *instance) bool {
			if len(x.cycle) != len(y.cycle) {
				return false
			}
			for i := range x.cycle {
				if string(x.cycle[i].body) != string(y.cycle[i].body) {
					return false
				}
			}
			rx, _ := x.db.Get(x.mainRel)
			ry, _ := y.db.Get(y.mainRel)
			return rx.Len() == ry.Len() && rx.Subtract(ry).Len() == 0
		}
		if !same(a, b) {
			t.Errorf("%s: seed 1 gave two different inputs", s.name)
		}
		if same(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same input", s.name)
		}
	}
}
