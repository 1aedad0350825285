#!/usr/bin/env sh
# End-to-end cluster smoke test against three real smiler-server
# processes on loopback ports: register a sensor through a non-owner
# (forwarding), observe and forecast through it, kill the owner, and
# assert a survivor serves the forecast tagged degraded_reason
# "replica" with the failover counters visible on /metrics. Run via
# `make cluster-smoke-procs`; `make cluster-smoke` runs the in-process
# equivalent under the race detector.
set -eu
SMOKE=cluster-smoke
. scripts/lib.sh

BIN=$(mktemp -d)/smiler-server
P1=19081
P2=19082
P3=19083
PEERS="n1=http://127.0.0.1:$P1,n2=http://127.0.0.1:$P2,n3=http://127.0.0.1:$P3"
SENSOR=smoke-hall
OUT=$(mktemp)

go build -o "$BIN" ./cmd/smiler-server

"$BIN" -addr "127.0.0.1:$P1" -node-id n1 -cluster-peers "$PEERS" \
    -probe-interval 100ms -probe-failures 2 -predictor ar -log-level warn &
PID1=$!
"$BIN" -addr "127.0.0.1:$P2" -node-id n2 -cluster-peers "$PEERS" \
    -probe-interval 100ms -probe-failures 2 -predictor ar -log-level warn &
PID2=$!
"$BIN" -addr "127.0.0.1:$P3" -node-id n3 -cluster-peers "$PEERS" \
    -probe-interval 100ms -probe-failures 2 -predictor ar -log-level warn &
PID3=$!
cleanup() {
    kill "$PID1" "$PID2" "$PID3" 2>/dev/null || true
    wait "$PID1" "$PID2" "$PID3" 2>/dev/null || true
    rm -f "$OUT"
}
trap cleanup EXIT INT TERM

wait_up "http://127.0.0.1:$P1" "http://127.0.0.1:$P2" "http://127.0.0.1:$P3"

# Who owns the sensor? Ask n1; every node answers identically.
curl -sf "http://127.0.0.1:$P1/cluster/ring?sensor=$SENSOR" >"$OUT"
OWNER=$(sed -n 's/.*"owner":"\([^"]*\)".*/\1/p' "$OUT")
case "$OWNER" in
n1) OWNER_PORT=$P1 OWNER_PID=$PID1 ;;
n2) OWNER_PORT=$P2 OWNER_PID=$PID2 ;;
n3) OWNER_PORT=$P3 OWNER_PID=$PID3 ;;
*)
    echo "cluster-smoke: could not resolve owner from: $(cat "$OUT")" >&2
    exit 1
    ;;
esac
# Pick any other node as the entry point.
if [ "$OWNER_PORT" = "$P1" ]; then ENTRY=$P2; else ENTRY=$P1; fi
echo "cluster-smoke: owner=$OWNER (:$OWNER_PORT), entry=:$ENTRY"

# Register + observe + forecast, all through the non-owner.
HIST=$(awk 'BEGIN{s="";for(i=0;i<400;i++){v=50+10*sin(2*3.14159265*i/48);s=s (i?",":"") v}print s}')
curl -sf -X POST "http://127.0.0.1:$ENTRY/sensors" \
    -H 'Content-Type: application/json' \
    -d "{\"id\":\"$SENSOR\",\"history\":[$HIST]}" >/dev/null
curl -sf -X POST "http://127.0.0.1:$ENTRY/sensors/$SENSOR/observe" \
    -H 'Content-Type: application/json' -d '{"value": 51.5}' >/dev/null
curl -sf "http://127.0.0.1:$ENTRY/sensors/$SENSOR/forecast?h=1" >"$OUT"
if grep -q '"degraded"' "$OUT"; then
    echo "cluster-smoke: healthy-cluster forecast unexpectedly degraded: $(cat "$OUT")" >&2
    exit 1
fi
echo "cluster-smoke: forwarded forecast OK: $(cat "$OUT")"

# Give replication a moment to ship the registration to the follower.
sleep 1

# Kill the owner; within the probe window a survivor must serve the
# forecast from the replica, tagged degraded.
kill "$OWNER_PID" 2>/dev/null || true
wait "$OWNER_PID" 2>/dev/null || true

i=0
while :; do
    if curl -sf "http://127.0.0.1:$ENTRY/sensors/$SENSOR/forecast?h=1" >"$OUT" 2>/dev/null &&
        grep -q '"degraded_reason":"replica"' "$OUT"; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "cluster-smoke: no degraded replica forecast after owner death; last: $(cat "$OUT")" >&2
        exit 1
    fi
    sleep 0.2
done
echo "cluster-smoke: replica forecast OK: $(cat "$OUT")"

# The failover is visible on the survivor's /metrics.
curl -sf "http://127.0.0.1:$ENTRY/metrics" >"$OUT"
status=0
for family in \
    smiler_cluster_failovers_total \
    smiler_cluster_promoted_serves_total \
    smiler_cluster_replication_lag_frames \
    smiler_cluster_peer_up \
    ; do
    if ! grep -q "^$family" "$OUT"; then
        echo "cluster-smoke: MISSING metric family $family" >&2
        status=1
    fi
done
if ! grep '^smiler_cluster_failovers_total' "$OUT" | grep -qv ' 0$'; then
    echo "cluster-smoke: failovers counter did not move" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "cluster-smoke: OK"
else
    echo "--- /metrics dump ---" >&2
    cat "$OUT" >&2
fi
exit $status
