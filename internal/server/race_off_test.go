//go:build !race

package server

// raceEnabled reports whether the race detector instruments this build;
// the allocation assertions skip under it (instrumentation perturbs the
// allocator).
const raceEnabled = false
