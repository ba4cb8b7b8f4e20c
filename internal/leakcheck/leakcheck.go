// Package leakcheck fails a test binary whose goroutines outlive its
// tests. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wait bounds how long Main lets goroutines that are still winding down
// finish before it calls them leaked.
const wait = 5 * time.Second

// Main runs m's tests and exits with their status, or with 1 if they
// passed but a goroutine with a frame in this module's internal
// packages — a producer, merger, fan-out call or handler that never
// drained — is still running after the wait; its stack is printed.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines left running after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines polls until no other goroutine has a frame in
// repro/internal/, or the wait runs out; it returns the stacks of those
// still running ("" when none are).
func leakedGoroutines() string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<16)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		var leaked []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "repro/internal/") && !strings.Contains(g, "leakcheck.leakedGoroutines(") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
