#!/usr/bin/env bash
# The benchmark regression gate, with nothing to fetch: compares `go test
# -bench` output against a committed baseline and fails past a 15 %
# geomean slowdown.
#
#   scripts/benchgate.sh bench/baseline.txt bench-current.txt
#
# For every benchmark it takes the median ns/op of each file's runs (the
# mean of the middle two for an even count), prints both medians and
# their change, and then the geomean of the current/baseline ratios over
# the benchmarks both files hold — what benchstat's sec/op geomean row
# reports. Names are compared without their -GOMAXPROCS suffix, so a
# baseline taken on one core count gates a run on another. Exit status:
# 0 within the bound, 1 past it, 2 when the files share no benchmark.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 BASELINE CURRENT" >&2
	exit 2
fi

awk -v limit=15 '
function median(key,    n, i, j, v, tmp) {
	n = cnt[key]
	for (i = 1; i <= n; i++) tmp[i] = val[key, i]
	for (i = 2; i <= n; i++) {
		v = tmp[i]
		for (j = i - 1; j >= 1 && tmp[j] > v; j--) tmp[j + 1] = tmp[j]
		tmp[j + 1] = v
	}
	if (n % 2 == 1) return tmp[(n + 1) / 2]
	return (tmp[n / 2] + tmp[n / 2 + 1]) / 2
}
/^Benchmark/ {
	side = NR == FNR ? 1 : 2
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") {
			key = side SUBSEP name
			val[key, ++cnt[key]] = $i + 0
			if (!(name in order)) { order[name] = ++names; byIndex[names] = name }
			break
		}
	}
}
END {
	printf "%-40s %16s %16s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta"
	shared = 0; logsum = 0
	for (k = 1; k <= names; k++) {
		name = byIndex[k]
		b = (1 SUBSEP name) in cnt; c = (2 SUBSEP name) in cnt
		if (b && c) {
			mb = median(1 SUBSEP name); mc = median(2 SUBSEP name)
			printf "%-40s %16.0f %16.0f %+8.2f%%\n", name, mb, mc, (mc / mb - 1) * 100
			shared++; logsum += log(mc / mb)
		} else if (b) {
			printf "%-40s %16.0f %16s %9s\n", name, median(1 SUBSEP name), "-", "n/a"
		} else {
			printf "%-40s %16s %16.0f %9s\n", name, "-", median(2 SUBSEP name), "n/a"
		}
	}
	if (shared == 0) {
		print "no benchmark appears in both files: nothing to gate" > "/dev/stderr"
		exit 2
	}
	delta = (exp(logsum / shared) - 1) * 100
	printf "geomean delta vs baseline: %+.2f%% over %d benchmarks\n", delta, shared
	if (delta > limit) {
		printf "::error::benchmark geomean regressed %+.2f%% (> %d%% slower than the baseline)\n", delta, limit > "/dev/stderr"
		print "If the slowdown is intended, regenerate the baseline:" > "/dev/stderr"
		print "  go test -run '\''^$'\'' -bench '\''BenchmarkE1IntroMemAccess$|BenchmarkE11Parallel$|BenchmarkE13Updates$'\'' -benchtime 1x -count 6 . > bench/baseline.txt" > "/dev/stderr"
		exit 1
	}
	print "no geomean slowdown past the bound"
}
' "$1" "$2"
