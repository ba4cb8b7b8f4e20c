package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The golden files pin the CLI contract: flags, count output and stats
// formatting. Regenerate deliberately with `go test ./cmd/cltj -update`
// after an intentional output change.
var update = flag.Bool("update", false, "rewrite golden files")

// durations is the one nondeterministic part of the output.
var durations = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|us|ms|m?s)\b`)

func normalize(out []byte) []byte {
	return durations.ReplaceAll(out, []byte("<dur>"))
}

func runGolden(t *testing.T, name string, args []string, wantExit int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if got := run(args, &stdout, &stderr); got != wantExit {
		t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", got, wantExit, &stdout, &stderr)
	}
	got := normalize(append(stdout.Bytes(), stderr.Bytes()...))

	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/cltj -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

func TestCLIGoldenCount(t *testing.T) {
	runGolden(t, "count_triangle", []string{"-query", "3-clique", "-workers", "1"}, 0)
}

func TestCLIGoldenCountLFTJ(t *testing.T) {
	runGolden(t, "count_lftj_4cycle", []string{"-query", "4-cycle", "-algo", "lftj", "-workers", "1"}, 0)
}

func TestCLIGoldenCountLFTJWorkers(t *testing.T) {
	runGolden(t, "count_lftj_4cycle_w2", []string{"-query", "4-cycle", "-algo", "lftj", "-workers", "2"}, 0)
}

func TestCLIGoldenEval(t *testing.T) {
	runGolden(t, "eval_3path", []string{"-query", "3-path", "-eval", "-workers", "1"}, 0)
}

func TestCLIGoldenEvalLFTJ(t *testing.T) {
	runGolden(t, "eval_lftj_3path", []string{"-query", "3-path", "-algo", "lftj", "-eval", "-workers", "1"}, 0)
}

func TestCLIGoldenExplicitQuery(t *testing.T) {
	runGolden(t, "explicit_query", []string{"-q", "E(x,y), E(y,x)", "-workers", "1", "-cache", "16"}, 0)
}

func TestCLIGoldenBatch(t *testing.T) {
	dir := t.TempDir()
	workload := filepath.Join(dir, "workload.txt")
	content := `# mixed workload: named shapes and explicit text
3-clique
E(x,y), E(y,z), E(x,z)
4-path

# repeated on purpose: must report builds=0
3-clique
not-a-query
`
	if err := os.WriteFile(workload, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-queries", workload, "-workers", "1"}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d, want 1 (one bad line)\n%s%s", got, &stdout, &stderr)
	}
	got := normalize(stdout.Bytes())

	golden := filepath.Join("testdata", "batch.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/cltj -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("batch output drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestCLIUnknownAlgo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-algo", "quantum"}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d, want 1", got)
	}
	if want := `unknown algorithm "quantum"`; !bytes.Contains(stderr.Bytes(), []byte(want)) {
		t.Fatalf("stderr %q missing %q", &stderr, want)
	}
}

func TestCLIBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-no-such-flag"}, &stdout, &stderr); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
}

func TestCLITimeout(t *testing.T) {
	// A 1ns budget is expired before the join starts: the deadline
	// check trips upfront, cltj exits nonzero and names the cause.
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-query", "4-cycle", "-workers", "1", "-timeout", "1ns"}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", got, &stdout, &stderr)
	}
	if want := "context deadline exceeded"; !bytes.Contains(stderr.Bytes(), []byte(want)) {
		t.Fatalf("stderr %q missing %q", &stderr, want)
	}

	// lftj honors it too.
	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"-algo", "lftj", "-workers", "1", "-timeout", "1ns"}, &stdout, &stderr); got != 1 {
		t.Fatalf("lftj exit = %d, want 1\n%s%s", got, &stdout, &stderr)
	}
	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"-algo", "lftj", "-workers", "2", "-timeout", "1ns"}, &stdout, &stderr); got != 1 {
		t.Fatalf("lftj workers-2 exit = %d, want 1\n%s%s", got, &stdout, &stderr)
	}

	// Engines without cancellation hooks reject the flag instead of
	// silently ignoring it.
	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"-algo", "ytd", "-timeout", "1s"}, &stdout, &stderr); got != 1 {
		t.Fatalf("ytd exit = %d, want 1", got)
	}
	if want := "-timeout requires"; !bytes.Contains(stderr.Bytes(), []byte(want)) {
		t.Fatalf("stderr %q missing %q", &stderr, want)
	}

	// So do the resident-engine modes, whose budget knob is per-request.
	dir := t.TempDir()
	workload := filepath.Join(dir, "w.txt")
	if err := os.WriteFile(workload, []byte("3-clique\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"-queries", workload, "-timeout", "1s"}, &stdout, &stderr); got != 1 {
		t.Fatalf("batch -timeout exit = %d, want 1", got)
	}
	if want := "timeout_ms per request"; !bytes.Contains(stderr.Bytes(), []byte(want)) {
		t.Fatalf("stderr %q missing %q", &stderr, want)
	}

	// A generous budget changes nothing: the run completes normally.
	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"-query", "3-clique", "-workers", "1", "-timeout", "1m"}, &stdout, &stderr); got != 0 {
		t.Fatalf("generous timeout exit = %d\n%s%s", got, &stdout, &stderr)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("count:")) {
		t.Fatalf("stdout missing count: %s", &stdout)
	}
}

func TestBatchReusesTries(t *testing.T) {
	dir := t.TempDir()
	workload := filepath.Join(dir, "w.txt")
	if err := os.WriteFile(workload, []byte("3-clique\n3-clique\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-queries", workload, "-workers", "1"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d\n%s%s", got, &stdout, &stderr)
	}
	out := stdout.String()
	first := regexp.MustCompile(`\[0\][^\n]*builds=(\d+)`).FindStringSubmatch(out)
	second := regexp.MustCompile(`\[1\][^\n]*builds=(\d+)`).FindStringSubmatch(out)
	if first == nil || second == nil {
		t.Fatalf("unexpected batch output:\n%s", out)
	}
	if first[1] == "0" {
		t.Fatalf("cold query reported builds=0:\n%s", out)
	}
	if second[1] != "0" {
		t.Fatalf("warm repeat reported builds=%s, want 0:\n%s", second[1], out)
	}
}

func TestCLIGoldenUpdates(t *testing.T) {
	dir := t.TempDir()
	deltas := filepath.Join(dir, "deltas.txt")
	content := `# grow one triangle, then retract an edge of another
+ E 61 62
+ E 62 63
+ E 61 63
apply
- E 61 63
+ E 63 61

# duplicate insert: second apply is partially redundant
+ E 61 62
`
	if err := os.WriteFile(deltas, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	runGolden(t, "updates_triangle", []string{"-updates", deltas, "-q", "E(x,y), E(y,z), E(x,z)", "-workers", "1"}, 0)
}

func TestCLIUpdatesErrors(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"badop.txt":  "* E 1 2\n",
		"badval.txt": "+ E 1 x\n",
		"badrel.txt": "+ R 1 2\n",
		"short.txt":  "+ E\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-updates", path}, &stdout, &stderr); got != 1 {
			t.Errorf("%s: exit = %d, want 1 (stderr %q)", name, got, stderr.String())
		}
	}
}

// TestCLIPersistentBatch runs the same workload twice over one
// -data-dir: the first run boots cold and persists, the second boots
// warm and must answer its first query from mmap'd indices (builds=0).
func TestCLIPersistentBatch(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	workload := filepath.Join(dir, "workload.txt")
	if err := os.WriteFile(workload, []byte("3-clique\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-queries", workload, "-workers", "1", "-data-dir", dataDir}

	var cold, warm bytes.Buffer
	if got := run(args, &cold, &cold); got != 0 {
		t.Fatalf("cold run exit = %d\n%s", got, &cold)
	}
	if !bytes.Contains(cold.Bytes(), []byte("cold start")) {
		t.Fatalf("first run did not report a cold start:\n%s", &cold)
	}
	if got := run(args, &warm, &warm); got != 0 {
		t.Fatalf("warm run exit = %d\n%s", got, &warm)
	}
	if !bytes.Contains(warm.Bytes(), []byte("warm start")) {
		t.Fatalf("second run did not report a warm start:\n%s", &warm)
	}
	if !bytes.Contains(warm.Bytes(), []byte("builds=0")) {
		t.Fatalf("warm first query rebuilt its tries:\n%s", &warm)
	}
	// Both runs must agree on the count line.
	countLine := regexp.MustCompile(`count=\d+`)
	cc, wc := countLine.Find(cold.Bytes()), countLine.Find(warm.Bytes())
	if cc == nil || !bytes.Equal(cc, wc) {
		t.Fatalf("count drifted across restart: cold %q, warm %q", cc, wc)
	}
}

// TestCLIDataDirValidation: -data-dir outside the resident modes, or
// combined with offline -updates replay, is rejected up front.
func TestCLIDataDirValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"single-query": {"-data-dir", t.TempDir(), "-query", "3-clique"},
		"with-updates": {"-data-dir", t.TempDir(), "-updates", "x.txt", "-queries", "w.txt"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(args, &stdout, &stderr); got != 1 {
			t.Errorf("%s: exit = %d, want 1 (stderr %q)", name, got, stderr.String())
		}
		if !bytes.Contains(stderr.Bytes(), []byte("-data-dir")) {
			t.Errorf("%s: stderr %q does not explain the -data-dir conflict", name, stderr.String())
		}
	}
}
