#!/usr/bin/env sh
# Anytime smoke test: boot one smiler-server per -predict-deadline rung,
# drive forecast-heavy load, and assert the quality ladder behaves:
#
#   - moderate deadline: zero errors, zero AR(1) fallbacks — every
#     answer comes from the real pipeline (exact or progressive);
#   - aggressive deadline: zero errors and a nonzero number of
#     progressive (deadline-truncated) answers — the engine degrades
#     by answering early, not by falling off the pipeline;
#   - the per-quality prediction counters are live on /metrics.
#
# The quality-rate assertions run through the loader's own SLO gate
# (forecast.fallback_rate<=0, forecast.progressive_rate>=...), so this
# smoke also exercises the ">=" floor grammar end to end. Run via
# `make anytime-smoke`.
set -eu

DIR=$(mktemp -d)
BIN="$DIR/smiler-server"
LOADER="$DIR/smilerloader"
PORT=19171
URL="http://127.0.0.1:$PORT"

go build -o "$BIN" ./cmd/smiler-server
go build -o "$LOADER" ./cmd/smilerloader

SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

# run_rung <name> <deadline> <slo> — boot the server with the given
# -predict-deadline, drive forecast-heavy load SLO-gated, snapshot
# /metrics, shut the server down. Leaves the report in $DIR/<name>.json
# and the metrics scrape in $DIR/<name>.metrics.
run_rung() {
    name=$1
    deadline=$2
    slo=$3
    "$BIN" -addr "127.0.0.1:$PORT" -predictor gp \
        -predict-deadline "$deadline" -degraded-fallback ar1 \
        -log-level warn &
    SRV_PID=$!
    i=0
    until curl -sf "$URL/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "anytime-smoke: server for $name rung did not come up" >&2
            exit 1
        fi
        sleep 0.2
    done
    if ! "$LOADER" \
        -targets "$URL" \
        -sensors 24 -history 2048 -seed 7 -prefix "any$name" \
        -mix 1:8 -horizons 1:4,3:1 \
        -arrival closed -concurrency 8 \
        -duration 10s -progress 5s \
        -slo "$slo" \
        -out "$DIR/$name.json"; then
        echo "anytime-smoke: $name rung violated its SLOs" >&2
        cat "$DIR/$name.json" >&2 || true
        exit 1
    fi
    curl -sf "$URL/metrics" >"$DIR/$name.metrics"
    kill "$SRV_PID" && wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
}

# Moderate rung: the deadline is comfortably above a full search, so
# nothing may error and nothing may reach the AR(1) fallback.
run_rung moderate 2s 'error_rate<=0,forecast.fallback_rate<=0'

# Aggressive rung: the deadline truncates searches mid-verification,
# so a visible fraction of answers must be progressive — and still
# zero errors: deadline pressure degrades quality, never availability.
run_rung aggressive 1ms 'error_rate<=0,forecast.progressive_rate>=0.01'

status=0
if ! grep -q '"exact":' "$DIR/moderate.json"; then
    echo "anytime-smoke: moderate rung produced no exact answers" >&2
    status=1
fi
if grep -q '"fallback":' "$DIR/moderate.json"; then
    echo "anytime-smoke: moderate rung hit the AR(1) fallback" >&2
    status=1
fi
if ! grep -q '"progressive":' "$DIR/aggressive.json"; then
    echo "anytime-smoke: aggressive rung produced no progressive answers" >&2
    status=1
fi
if ! grep -q 'smiler_predictions_total{quality="exact"}' "$DIR/moderate.metrics"; then
    echo "anytime-smoke: /metrics missing per-quality prediction counter" >&2
    status=1
fi
if ! grep -q 'smiler_anytime_quality_estimate' "$DIR/aggressive.metrics"; then
    echo "anytime-smoke: /metrics missing quality-estimate histogram" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "anytime-smoke: OK"
else
    echo "--- moderate report ---" >&2
    cat "$DIR/moderate.json" >&2
    echo "--- aggressive report ---" >&2
    cat "$DIR/aggressive.json" >&2
fi
exit $status
