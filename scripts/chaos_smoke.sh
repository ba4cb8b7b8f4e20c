#!/usr/bin/env bash
# Chaos smoke test: boot a replicated two-partition fleet (partition 0
# served by two replicas, partition 1 by one daemon), kill real daemons
# mid-workload, and verify the degraded-mode contract end to end on
# real sockets:
#   (a) healthy fleet: answers byte-identical to the single-engine
#       oracle, and allow_partial requests are NOT marked partial,
#   (b) partition 1 dies: strict queries answer a typed 502 naming the
#       dead shard and /healthz drops to 503, while allow_partial
#       queries answer 200 with "partial": true naming it in
#       "missing_shards" and a count exact over the surviving
#       partition,
#   (c) the dead daemon restarts: answers return to byte-identical,
#   (d) one replica of partition 0 dies: reads fail over to its twin
#       and full answers keep flowing, with the breaker states visible
#       in /stats.
# Run by CI on every push; usable locally:
#
#   ./scripts/chaos_smoke.sh
set -euo pipefail

S0A=127.0.0.1:8395
S0B=127.0.0.1:8396
S1=127.0.0.1:8397
COORD=127.0.0.1:8398
SINGLE=127.0.0.1:8399
QUERY='E(x,y), E(x,z)'
COUNT_BODY=$(printf '{"query": "%s", "mode": "count"}' "$QUERY")
PARTIAL_BODY=$(printf '{"query": "%s", "mode": "count", "allow_partial": true}' "$QUERY")
STREAM_BODY=$(printf '{"query": "%s", "mode": "stream"}' "$QUERY")

go build -o /tmp/cltjd-chaos ./cmd/cltjd

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

json_field() { # file pythonexpr
  python3 -c 'import json,sys; st=json.load(open(sys.argv[1])); print(eval(sys.argv[2]))' "$1" "$2"
}

/tmp/cltjd-chaos -addr "$S0A" -shard 0/2 &
S0A_PID=$!
PIDS+=($S0A_PID)
/tmp/cltjd-chaos -addr "$S0B" -shard 0/2 &
PIDS+=($!)
/tmp/cltjd-chaos -addr "$S1" -shard 1/2 &
S1_PID=$!
PIDS+=($S1_PID)
/tmp/cltjd-chaos -addr "$SINGLE" &
PIDS+=($!)
wait_up "$S0A"; wait_up "$S0B"; wait_up "$S1"; wait_up "$SINGLE"

# Partition 0 is a replica group; breaker cooldowns are default.
/tmp/cltjd-chaos -addr "$COORD" -coordinator -shards "$S0A|$S0B,$S1" -hedge 100ms &
PIDS+=($!)
wait_up "$COORD"

# --- (a) healthy fleet: exact, and allow_partial is not partial ---
curl -sf "http://$SINGLE/query" -d "$COUNT_BODY" >/tmp/chaos-single.json
SCOUNT=$(json_field /tmp/chaos-single.json 'st["count"]')
curl -sf "http://$COORD/query" -d "$PARTIAL_BODY" >/tmp/chaos-healthy.json
HCOUNT=$(json_field /tmp/chaos-healthy.json 'st["count"]')
HPARTIAL=$(json_field /tmp/chaos-healthy.json 'st.get("partial", False)')
if [ "$HCOUNT" != "$SCOUNT" ] || [ "$HPARTIAL" != "False" ]; then
  echo "FAIL: healthy fleet count=$HCOUNT partial=$HPARTIAL, want $SCOUNT / False" >&2
  exit 1
fi

# The surviving partition's own exact count — what a partial answer
# missing partition 1 must report.
curl -sf "http://$S0A/query" -d "$COUNT_BODY" >/tmp/chaos-s0.json
S0COUNT=$(json_field /tmp/chaos-s0.json 'st["count"]')

# --- (b) kill partition 1: typed 502 strict, flagged 200 partial ---
kill -TERM "$S1_PID" 2>/dev/null || true
wait "$S1_PID" 2>/dev/null || true

STRICT_STATUS=$(curl -s -o /tmp/chaos-502.json -w '%{http_code}' "http://$COORD/query" -d "$COUNT_BODY")
if [ "$STRICT_STATUS" != "502" ] || ! grep -q "$S1" /tmp/chaos-502.json; then
  echo "FAIL: strict query with dead partition answered $STRICT_STATUS ($(cat /tmp/chaos-502.json)), want 502 naming $S1" >&2
  exit 1
fi
PARTIAL_STATUS=$(curl -s -o /tmp/chaos-partial.json -w '%{http_code}' "http://$COORD/query" -d "$PARTIAL_BODY")
if [ "$PARTIAL_STATUS" != "200" ]; then
  echo "FAIL: allow_partial with dead partition answered $PARTIAL_STATUS ($(cat /tmp/chaos-partial.json))" >&2
  exit 1
fi
PCOUNT=$(json_field /tmp/chaos-partial.json 'st["count"]')
PPARTIAL=$(json_field /tmp/chaos-partial.json 'st.get("partial", False)')
PMISSING=$(json_field /tmp/chaos-partial.json 'st.get("missing_shards", [])[0]')
if [ "$PPARTIAL" != "True" ] || [ "$PMISSING" != "$S1" ] || [ "$PCOUNT" != "$S0COUNT" ]; then
  echo "FAIL: partial answer count=$PCOUNT partial=$PPARTIAL missing=$PMISSING, want $S0COUNT / True / $S1" >&2
  exit 1
fi
HEALTH_STATUS=$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD/healthz")
if [ "$HEALTH_STATUS" != "503" ]; then
  echo "FAIL: /healthz with a dead partition answered $HEALTH_STATUS, want 503" >&2
  exit 1
fi

# --- (c) restart partition 1: recovery to byte-identical answers ---
/tmp/cltjd-chaos -addr "$S1" -shard 1/2 &
PIDS+=($!)
wait_up "$S1"
for _ in $(seq 1 100); do
  RECOVER_STATUS=$(curl -s -o /tmp/chaos-recover.json -w '%{http_code}' "http://$COORD/query" -d "$COUNT_BODY")
  [ "$RECOVER_STATUS" = "200" ] && break
  sleep 0.1
done
RCOUNT=$(json_field /tmp/chaos-recover.json 'st["count"]')
if [ "$RECOVER_STATUS" != "200" ] || [ "$RCOUNT" != "$SCOUNT" ]; then
  echo "FAIL: after restart, count query answered $RECOVER_STATUS count=$RCOUNT, want 200 count=$SCOUNT" >&2
  exit 1
fi
curl -sf "http://$COORD/query" -d "$STREAM_BODY" >/tmp/chaos-stream-coord.ndjson
curl -sf "http://$SINGLE/query" -d "$STREAM_BODY" >/tmp/chaos-stream-single.ndjson
if ! diff -q /tmp/chaos-stream-coord.ndjson /tmp/chaos-stream-single.ndjson >/dev/null; then
  echo "FAIL: recovered NDJSON stream diverges from the single engine" >&2
  diff /tmp/chaos-stream-coord.ndjson /tmp/chaos-stream-single.ndjson | head -10 >&2
  exit 1
fi

# --- (d) kill one replica of partition 0: failover keeps full answers ---
kill -TERM "$S0A_PID" 2>/dev/null || true
wait "$S0A_PID" 2>/dev/null || true
for i in 1 2 3; do
  FOVER_STATUS=$(curl -s -o /tmp/chaos-failover.json -w '%{http_code}' "http://$COORD/query" -d "$COUNT_BODY")
  FCOUNT=$(json_field /tmp/chaos-failover.json 'st.get("count", -1)')
  if [ "$FOVER_STATUS" != "200" ] || [ "$FCOUNT" != "$SCOUNT" ]; then
    echo "FAIL: failover query $i answered $FOVER_STATUS count=$FCOUNT, want 200 count=$SCOUNT" >&2
    exit 1
  fi
done
FHEALTH=$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD/healthz")
if [ "$FHEALTH" != "200" ]; then
  echo "FAIL: /healthz with one dead replica answered $FHEALTH, want 200 (its twin serves)" >&2
  exit 1
fi
BREAKERS=$(curl -sf "http://$COORD/stats" | python3 -c 'import json,sys; st=json.load(sys.stdin); print(len(st.get("breakers", [])), st["partial_served"])')
read -r NBREAKERS NPARTIAL <<<"$BREAKERS"
if [ "$NBREAKERS" -lt 3 ] || [ "$NPARTIAL" -lt 1 ]; then
  echo "FAIL: /stats breakers=$NBREAKERS partial_served=$NPARTIAL, want >=3 / >=1" >&2
  exit 1
fi

echo "PASS: chaos smoke: partial=$PCOUNT/$SCOUNT naming $S1, recovery byte-identical, replica failover serves $FCOUNT, $NBREAKERS breakers tracked"
