#!/usr/bin/env bash
# Self-agreement: runs every workload of the benchmark twice and fails
# unless run B's end-to-end metrics are within BENCHMARK.json's bounds of
# run A's, and accesses_per_req is identical on the five static workloads.
#
#   benchmark/selfcheck.sh            build once, compare the build with itself
#   benchmark/selfcheck.sh A B        compare two built binaries (parent, change),
#                                     alternating which runs first per workload
#
# SEED and SECONDS_PER_RUN override the seed (default 1) and the window (default
# BENCHMARK.json's run_seconds). The table is printed either way.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/selfcheck"

if [ "$#" -eq 0 ]; then
	# run.sh builds (a no-op after the first time) and runs the build.
	a=(bash "$here/run.sh") b=(bash "$here/run.sh")
elif [ "$#" -eq 2 ]; then
	a=("$1" -scratch "$out/tmp") b=("$2" -scratch "$out/tmp")
else
	echo "usage: $0 [binaryA binaryB]" >&2
	exit 2
fi

seed="${SEED:-1}"
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"

i=0
for w in $workloads; do
	run_a() { "${a[@]}" -workload "$w" -seed "$seed" -seconds "$seconds" -json "$out/selfcheck/A_$w.json" >/dev/null; }
	run_b() { "${b[@]}" -workload "$w" -seed "$seed" -seconds "$seconds" -json "$out/selfcheck/B_$w.json" >/dev/null; }
	if [ $((i % 2)) -eq 0 ]; then run_a; run_b; else run_b; run_a; fi
	i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$out/selfcheck" <<'EOF'
import json, sys
contract = json.load(open(sys.argv[1]))
ok = True
print(f'{"workload":15s} {"metric":18s} {"A":>14s} {"B":>14s} {"B worse by":>11s} {"bound":>7s}')
for w in (x["name"] for x in contract["workloads"]):
    A = json.load(open(f"{sys.argv[2]}/A_{w}.json"))[0]
    B = json.load(open(f"{sys.argv[2]}/B_{w}.json"))[0]
    if A["cycle_requests"] != B["cycle_requests"] or A["edges"] != B["edges"]:
        print(f"{w}: the two runs did not run the same input"); ok = False
    for m in contract["end_to_end"]:
        va, vb = A["metrics"][m["name"]]["value"], B["metrics"][m["name"]]["value"]
        worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
        verdict = ""
        if worse > m["bound"]:
            verdict, ok = "  OUTSIDE BOUND", False
        if m["name"] == "accesses_per_req" and w != "mixed_update" and va != vb:
            verdict, ok = "  NOT IDENTICAL", False
        print(f'{w:15s} {m["name"]:18s} {va:14.4f} {vb:14.4f} {worse*100:10.2f}% {m["bound"]*100:6.1f}%{verdict}')
    if A["failed"] or B["failed"]:
        print(f"{w}: failed requests: A {A['failed']}, B {B['failed']}"); ok = False
print("selfcheck: PASS" if ok else "selfcheck: FAIL")
sys.exit(0 if ok else 1)
EOF
