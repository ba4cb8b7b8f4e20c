#!/usr/bin/env bash
# Cluster smoke test: boot two shard daemons (each holding one hash
# partition of the built-in sample graph), a coordinator over them, and
# a single unsharded daemon as the oracle. Verify the scatter–gather
# tier end to end on real sockets:
#   (a) merged counts and aggregates equal the single engine's,
#   (b) the merged NDJSON stream is byte-identical to the single
#       engine's (same header, rows in root-key order, same trailer),
#   (c) the merged /stats view parses and sees both shards,
#   (d) killing a shard mid-fleet turns queries into a typed 502 naming
#       the dead shard, and /healthz into 503,
#   (e) (run before the kill) the optimistic snapshot handshake: an
#       update routed by the coordinator costs the next query no retry,
#       an update sent straight to a shard costs it exactly one, and
#       either way the answer equals the single engine's after the same
#       updates.
# Run by CI on every push; usable locally:
#
#   ./scripts/cluster_smoke.sh
set -euo pipefail

S0=127.0.0.1:8391
S1=127.0.0.1:8392
COORD=127.0.0.1:8393
SINGLE=127.0.0.1:8394
# Root-shardable workloads: every atom leads with x, so results
# decompose disjointly by hash(x) and the coordinator accepts them.
QUERY='E(x,y), E(x,z)'
COUNT_BODY=$(printf '{"query": "%s", "mode": "count"}' "$QUERY")
STREAM_BODY=$(printf '{"query": "%s", "mode": "stream"}' "$QUERY")

go build -o /tmp/cltjd-cluster ./cmd/cltjd

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -TERM "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

wait_up() {
  for _ in $(seq 1 100); do
    if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "daemon on $1 did not come up" >&2
  return 1
}

/tmp/cltjd-cluster -addr "$S0" -shard 0/2 &
PIDS+=($!)
/tmp/cltjd-cluster -addr "$S1" -shard 1/2 &
S1_PID=$!
PIDS+=($S1_PID)
/tmp/cltjd-cluster -addr "$SINGLE" &
PIDS+=($!)
wait_up "$S0"
wait_up "$S1"
wait_up "$SINGLE"

# The coordinator gates its own admission on the shards' readiness.
/tmp/cltjd-cluster -addr "$COORD" -coordinator -shards "$S0,$S1" &
PIDS+=($!)
wait_up "$COORD"

# --- (a) byte-identical buffered answers ---
curl -sf "http://$COORD/query" -d "$COUNT_BODY" >/tmp/cluster-count-coord.json
curl -sf "http://$SINGLE/query" -d "$COUNT_BODY" >/tmp/cluster-count-single.json
CCOUNT=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["count"])' /tmp/cluster-count-coord.json)
SCOUNT=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["count"])' /tmp/cluster-count-single.json)
if [ "$CCOUNT" != "$SCOUNT" ]; then
  echo "FAIL: merged count $CCOUNT != single-engine count $SCOUNT" >&2
  exit 1
fi

# --- (b) byte-identical NDJSON streams ---
curl -sf "http://$COORD/query" -d "$STREAM_BODY" >/tmp/cluster-stream-coord.ndjson
curl -sf "http://$SINGLE/query" -d "$STREAM_BODY" >/tmp/cluster-stream-single.ndjson
if ! diff -q /tmp/cluster-stream-coord.ndjson /tmp/cluster-stream-single.ndjson >/dev/null; then
  echo "FAIL: merged NDJSON stream diverges from the single engine:" >&2
  diff /tmp/cluster-stream-coord.ndjson /tmp/cluster-stream-single.ndjson | head -10 >&2
  exit 1
fi
ROWS=$(grep -c '"row"' /tmp/cluster-stream-coord.ndjson || true)

# --- (c) merged stats see the whole fleet ---
SHARDS=$(curl -sf "http://$COORD/stats" | python3 -c 'import json,sys; st=json.load(sys.stdin); print(st["shards"], len(st["per_shard"]))')
if [ "$SHARDS" != "2 2" ]; then
  echo "FAIL: merged /stats reports '$SHARDS', want '2 2'" >&2
  exit 1
fi

# --- (e) optimistic handshake: own writes free, foreign writes one retry ---
count_of() { # addr
  curl -sf "http://$1/query" -d "$COUNT_BODY" | python3 -c 'import json,sys; print(json.load(sys.stdin)["count"])'
}
retries() {
  curl -sf "http://$COORD/stats" | python3 -c 'import json,sys; st=json.load(sys.stdin); print(st["snapshot_retries"], st["snapshot_rejects"])'
}
# 900001 and 900002 hash to shards 0 and 1, so the first delta touches
# both and the second, sent to shard 1 directly, belongs there.
ROUTED='{"relation": "E", "inserts": [[900001, 1], [900001, 2], [900002, 1], [900002, 2]]}'
DIRECT='{"relation": "E", "inserts": [[900002, 3], [900002, 4]]}'
curl -sf "http://$COORD/update" -d "$ROUTED" >/dev/null
curl -sf "http://$SINGLE/update" -d "$ROUTED" >/dev/null
CCOUNT_E=$(count_of "$COORD")
SCOUNT_E=$(count_of "$SINGLE")
if [ "$CCOUNT_E" != "$SCOUNT_E" ] || [ "$CCOUNT_E" = "$CCOUNT" ] || [ "$(retries)" != "0 0" ]; then
  echo "FAIL: after a coordinator-routed update: count $CCOUNT_E vs single $SCOUNT_E (before: $CCOUNT), retries/rejects '$(retries)', want equal, changed, '0 0'" >&2
  exit 1
fi
curl -sf "http://$S1/update" -d "$DIRECT" >/dev/null
curl -sf "http://$SINGLE/update" -d "$DIRECT" >/dev/null
CCOUNT_E=$(count_of "$COORD")
SCOUNT_E=$(count_of "$SINGLE")
if [ "$CCOUNT_E" != "$SCOUNT_E" ] || [ "$(retries)" != "1 0" ]; then
  echo "FAIL: after an update straight to shard $S1: count $CCOUNT_E vs single $SCOUNT_E, retries/rejects '$(retries)', want equal and '1 0'" >&2
  exit 1
fi

# --- (d) shard failure: typed 502 naming the dead shard ---
kill -TERM "$S1_PID" 2>/dev/null || true
wait "$S1_PID" 2>/dev/null || true
FAIL_STATUS=$(curl -s -o /tmp/cluster-502.json -w '%{http_code}' "http://$COORD/query" -d "$COUNT_BODY")
if [ "$FAIL_STATUS" != "502" ]; then
  echo "FAIL: dead shard answered $FAIL_STATUS, want 502 ($(cat /tmp/cluster-502.json))" >&2
  exit 1
fi
if ! grep -q "$S1" /tmp/cluster-502.json; then
  echo "FAIL: 502 body does not name the dead shard $S1: $(cat /tmp/cluster-502.json)" >&2
  exit 1
fi
HEALTH_STATUS=$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD/healthz")
if [ "$HEALTH_STATUS" != "503" ]; then
  echo "FAIL: coordinator /healthz with a dead shard answered $HEALTH_STATUS, want 503" >&2
  exit 1
fi

echo "PASS: scatter–gather over 2 shards: count=$CCOUNT rows=$ROWS byte-identical; routed update 0 retries, direct update 1 retry, count=$CCOUNT_E; dead shard -> typed 502 naming $S1"
