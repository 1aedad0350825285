#!/usr/bin/env sh
# End-to-end observability smoke test: start smiler-server on an
# ephemeral port, register a sensor, run one prediction, then assert
# that /metrics serves every required metric family and that
# /debug/trace/{sensor} returns per-phase spans. A second phase boots
# a two-node cluster and asserts the membership gauges (map epoch,
# member count, rebalance counters) are served. Exits non-zero on any
# missing family. Run via `make metrics-smoke`.
set -eu
SMOKE=metrics-smoke
. scripts/lib.sh

BIN=$(mktemp -d)/smiler-server
ADDR=127.0.0.1:18080
LOG=$(mktemp)

go build -o "$BIN" ./cmd/smiler-server

"$BIN" -addr "$ADDR" -predictor ar -log-level warn &
PID=$!
PIDC1=""
PIDC2=""
cleanup() {
    kill "$PID" 2>/dev/null || true
    [ -n "$PIDC1" ] && kill "$PIDC1" 2>/dev/null || true
    [ -n "$PIDC2" ] && kill "$PIDC2" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -f "$LOG"
}
trap cleanup EXIT INT TERM

wait_up "http://$ADDR"

# One sensor, one prediction — enough traffic to populate every family.
HIST=$(awk 'BEGIN{s="";for(i=0;i<300;i++){v=10+3*sin(2*3.14159265*i/24);s=s (i?",":"") v}print s}')
curl -sf -X POST "http://$ADDR/sensors" \
    -H 'Content-Type: application/json' \
    -d "{\"id\":\"smoke\",\"history\":[$HIST]}" >/dev/null
curl -sf "http://$ADDR/sensors/smoke/forecast?h=1" >/dev/null

curl -sf "http://$ADDR/metrics" >"$LOG"

status=0
for family in \
    smiler_predictions_total \
    smiler_predict_phase_seconds_bucket \
    smiler_knn_candidates_total \
    smiler_knn_pruned_total \
    smiler_knn_unfiltered_total \
    smiler_knn_sealed_total \
    smiler_knn_cascade_pruned_total \
    smiler_dtw_columns_total \
    smiler_ingest_processed_total \
    smiler_forecast_cache_misses_total \
    smiler_forecast_cache_hits_total \
    smiler_gp_fits_total \
    smiler_gp_optimizer_evals_total \
    smiler_gp_optimizer_gradients_total \
    smiler_gp_optimizations_total \
    smiler_sensors \
    smiler_http_requests_total \
    smiler_http_request_seconds_bucket \
    smiler_runtime_gc_pause_seconds \
    smiler_runtime_heap_live_bytes \
    smiler_runtime_goroutines \
    smiler_events_total \
    ; do
    if ! grep -q "^$family" "$LOG"; then
        echo "metrics-smoke: MISSING family $family" >&2
        status=1
    fi
done

if ! grep -q '^smiler_http_request_seconds_bucket{route=.*code="2' "$LOG"; then
    echo "metrics-smoke: smiler_http_request_seconds lacks the code label" >&2
    status=1
fi

if ! curl -sf "http://$ADDR/debug/trace/smoke" | grep -q '"name":"search"'; then
    echo "metrics-smoke: /debug/trace/smoke missing search span" >&2
    status=1
fi

# The flight recorder serves its ring, and at minimum the boot marker
# is in it.
if ! curl -sf "http://$ADDR/debug/events" | grep -q '"type":"startup"'; then
    echo "metrics-smoke: /debug/events missing the startup event" >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "--- /metrics dump ---" >&2
    cat "$LOG" >&2
    exit $status
fi
echo "metrics-smoke: standalone OK ($(grep -c '^smiler_' "$LOG") smiler_* samples)"

# Phase 2: a two-node cluster must additionally serve the membership
# gauges — map epoch (nonzero), member count, per-peer liveness, and
# the rebalance counters.
PC1=18081
PC2=18082
CPEERS="c1=http://127.0.0.1:$PC1,c2=http://127.0.0.1:$PC2"
"$BIN" -addr "127.0.0.1:$PC1" -node-id c1 -cluster-peers "$CPEERS" \
    -predictor ar -log-level warn &
PIDC1=$!
"$BIN" -addr "127.0.0.1:$PC2" -node-id c2 -cluster-peers "$CPEERS" \
    -predictor ar -log-level warn &
PIDC2=$!
wait_up "http://127.0.0.1:$PC1" "http://127.0.0.1:$PC2"

curl -sf "http://127.0.0.1:$PC1/metrics" >"$LOG"
for family in \
    smiler_cluster_map_epoch \
    smiler_cluster_members \
    smiler_cluster_peer_up \
    smiler_rebalance_moved_sensors \
    smiler_rebalance_pending_sensors \
    ; do
    if ! grep -q "^$family" "$LOG"; then
        echo "metrics-smoke: MISSING cluster family $family" >&2
        status=1
    fi
done
# The seed map is epoch 1; the gauge must never read 0 on a live node.
if grep -q '^smiler_cluster_map_epoch 0$' "$LOG"; then
    echo "metrics-smoke: smiler_cluster_map_epoch reads 0" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "metrics-smoke: OK ($(grep -c '^smiler_' "$LOG") smiler_* samples on c1)"
else
    echo "--- cluster /metrics dump ---" >&2
    cat "$LOG" >&2
fi
exit $status
