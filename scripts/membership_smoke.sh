#!/usr/bin/env sh
# Dynamic-membership smoke test against real smiler-server processes:
# boot a 3-node cluster, put it under sustained curl traffic through
# the two nodes that live the whole run, then — while the traffic is
# flowing — join a fourth node with -cluster-join and decommission n3
# with POST /cluster/decommission. Asserts the epoch advanced past the
# join and the drain, the final map holds exactly n1/n2/n4 all active,
# the decommissioned process exited 0 on its own, rebalancing went
# quiet, the flight recorder logged the churn, and every request of
# the traffic succeeded. Run via `make membership-smoke`.
set -eu
SMOKE=membership-smoke
. scripts/lib.sh

DIR=$(mktemp -d)
BIN="$DIR/smiler-server"
P1=19101
P2=19102
P3=19103
P4=19104
PEERS="n1=http://127.0.0.1:$P1,n2=http://127.0.0.1:$P2,n3=http://127.0.0.1:$P3"
COMMON="-predictor ar -log-level warn -probe-interval 100ms -probe-failures 2 \
-rebalance-batch 8 -rebalance-interval 100ms"

go build -o "$BIN" ./cmd/smiler-server

# shellcheck disable=SC2086
"$BIN" -addr "127.0.0.1:$P1" -node-id n1 -cluster-peers "$PEERS" $COMMON &
PID1=$!
# shellcheck disable=SC2086
"$BIN" -addr "127.0.0.1:$P2" -node-id n2 -cluster-peers "$PEERS" $COMMON &
PID2=$!
# shellcheck disable=SC2086
"$BIN" -addr "127.0.0.1:$P3" -node-id n3 -cluster-peers "$PEERS" $COMMON &
PID3=$!
PID4=""
LOADPID=""
cleanup() {
    kill "$PID1" "$PID2" 2>/dev/null || true
    [ -n "$PID3" ] && kill "$PID3" 2>/dev/null || true
    [ -n "$PID4" ] && kill "$PID4" 2>/dev/null || true
    [ -n "$LOADPID" ] && kill "$LOADPID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

wait_up "http://127.0.0.1:$P1" "http://127.0.0.1:$P2" "http://127.0.0.1:$P3"

epoch_of() {
    curl -sf "http://127.0.0.1:$1/cluster/map" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p'
}

# wait_epoch PORT MIN: poll until the node's map epoch reaches MIN.
wait_epoch() {
    i=0
    while :; do
        e=$(epoch_of "$1" || echo 0)
        [ "${e:-0}" -ge "$2" ] && return 0
        i=$((i + 1))
        [ "$i" -le 150 ] || die ":$1 stuck at epoch ${e:-?}, want >= $2"
        sleep 0.2
    done
}

# The traffic runs the whole time, through only n1 and n2 — the nodes
# that live through every phase. Retries absorb the ownership
# cutovers; the idempotency key every POST carries makes a retried
# observation apply once. Any request that still fails fails the smoke.
CURL="$CURL --retry 5 --retry-all-errors"
road 120 128 2
register "http://127.0.0.1:$P1" "http://127.0.0.1:$P2"
drive m 22 10 "http://127.0.0.1:$P1" "http://127.0.0.1:$P2" >"$DIR/forecasts" &
LOADPID=$!

# Let the traffic reach the whole population before reshaping the cluster.
sleep 5

# Phase 1: n4 joins via -cluster-join; its seed list names only itself.
echo "$SMOKE: joining n4"
# shellcheck disable=SC2086
"$BIN" -addr "127.0.0.1:$P4" -node-id n4 \
    -cluster-peers "n4=http://127.0.0.1:$P4" \
    -cluster-join "http://127.0.0.1:$P1" $COMMON &
PID4=$!
# The join bumps the epoch (>=2); the finalize after its rebalance
# bumps it again (>=3).
wait_epoch "$P1" 3
echo "$SMOKE: join finalized at epoch $(epoch_of "$P1")"

# Phase 2: decommission n3 through its own endpoint while the traffic
# keeps flowing. The process must drain and exit 0 by itself.
echo "$SMOKE: decommissioning n3"
curl -sf -X POST "http://127.0.0.1:$P3/cluster/decommission" \
    -H 'Content-Type: application/json' -d '{}' >/dev/null
wait "$PID3" || die "decommissioned n3 exited nonzero"
PID3="" # reaped; cleanup must not kill an unrelated pid
echo "$SMOKE: n3 drained and exited 0"

# Phase 3: the survivors converge — same epoch, three active members,
# n3 gone, no rebalance work pending.
wait_epoch "$P1" 5
status=0
MAP=$(curl -sf "http://127.0.0.1:$P1/cluster/map")
for id in n1 n2 n4; do
    if ! echo "$MAP" | grep -q "\"id\":\"$id\",\"url\":[^,]*,\"state\":\"active\""; then
        echo "$SMOKE: member $id not active in final map: $MAP" >&2
        status=1
    fi
done
if echo "$MAP" | grep -q '"id":"n3"'; then
    echo "$SMOKE: n3 still in final map: $MAP" >&2
    status=1
fi
i=0
until curl -sf "http://127.0.0.1:$P1/cluster/rebalance" | grep -q '"pending":0'; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "$SMOKE: rebalance never went quiet" >&2
        status=1
        break
    fi
    sleep 0.2
done

# Phase 4: the traffic must have sailed through all of it.
wait "$LOADPID" || die "a request of the traffic failed through the membership change"
LOADPID=""
echo "$SMOKE: traffic: $(wc -l <"$DIR/forecasts") forecasts, ten observations before each, none failed"

# The membership churn is on the survivors' flight recorders.
EVENTS=$(curl -sf "http://127.0.0.1:$P1/debug/events")
for ev in member_join epoch_change member_drain member_leave; do
    if ! echo "$EVENTS" | grep -q "\"$ev\""; then
        echo "$SMOKE: flight recorder missing $ev" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "$SMOKE: OK"
else
    echo "--- final map ---" >&2
    echo "$MAP" >&2
fi
exit $status
