#!/usr/bin/env bash
# fuzz_smoke.sh PKG TARGET — 30 seconds of coverage-guided fuzzing of one
# fuzz target, as CI's fuzz-smoke job runs it:
#
#   scripts/fuzz_smoke.sh internal/cq FuzzParse
#
# Go allows one fuzz target per invocation, hence one call per target.
# -fuzzminimizetime 1s caps minimising a failing input (60 s by default),
# so a failure found late in the budget is reported rather than spent
# minimising.
#
# Besides go test's own verdict, the run fails when the fuzzer stalls:
# go test prints a progress line every few seconds, and one that reports
# no more execs than the line before it, at a later elapsed time, means
# the target stopped executing inputs — a hang or a pathological
# slowdown that go test would otherwise report as PASS after fuzzing
# almost nothing. The last progress line is exempt: go test prints it as
# the fuzzing stops, often a second after the one before it and at
# 0/sec. A run that prints no progress line at all fails too.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 PKG TARGET" >&2
	exit 2
fi
pkg=${1#./}
target=$2

log=$(mktemp)
trap 'rm -f "$log"' EXIT

go test -run '^$' -fuzz "^${target}\$" -fuzztime 30s -fuzzminimizetime 1s "./$pkg" 2>&1 | tee "$log"

# Progress lines read "fuzz: elapsed: 9s, execs: 12345 (4115/sec), ...".
# A stall is reported once a later progress line shows it was not the
# last.
awk -v target="$target" '
	/^fuzz: elapsed: .*, execs: [0-9]+ / {
		if (stall != "") {
			print stall > "/dev/stderr"
			exit 1
		}
		match($0, /elapsed: [^,]+/)
		elapsed = substr($0, RSTART + 9, RLENGTH - 9)
		match($0, /execs: [0-9]+/)
		execs = substr($0, RSTART + 7, RLENGTH - 7) + 0
		if (seen && elapsed != last_elapsed && execs <= last_execs) {
			stall = sprintf("fuzz_smoke: %s stalled: %d execs at %s, still %d at %s", target, last_execs, last_elapsed, execs, elapsed)
		}
		seen = 1
		last_elapsed = elapsed
		last_execs = execs
	}
	END {
		if (!seen) {
			printf "fuzz_smoke: %s printed no progress line\n", target > "/dev/stderr"
			exit 1
		}
	}
' "$log"
