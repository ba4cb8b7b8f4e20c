#!/usr/bin/env bash
# Builds the benchmark from source and runs it. BENCHMARK.json's command;
# arguments are passed through. Everything the build and the run write —
# Go's caches, the binary, temp files — stays under .bench_build in the
# checkout. Fails (and prints no result) when the repository around
# benchmark/ is missing, because the build then has nothing to compile.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/cltjbench" .)
exec "$out/cltjbench" -scratch "$out/tmp" "$@"
