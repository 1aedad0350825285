#!/usr/bin/env sh
# Anytime smoke test: boot one smiler-server per -predict-deadline rung,
# drive two concurrent observe→forecast curl loops at it, and assert
# the quality ladder behaves:
#
#   - moderate deadline: zero errors, zero AR(1) fallbacks — every
#     answer comes from the real pipeline, and exact answers are served;
#   - aggressive deadline: zero errors and at least 1% progressive
#     (deadline-truncated) answers — the engine degrades by answering
#     early, not by falling off the pipeline;
#   - the per-quality prediction counters are live on /metrics.
#
# The ladder is read from the "quality" field of every forecast
# response. Run via `make anytime-smoke`.
set -eu
SMOKE=anytime-smoke
. scripts/lib.sh

DIR=$(mktemp -d)
BIN="$DIR/smiler-server"
URL="http://127.0.0.1:19171"

go build -o "$BIN" ./cmd/smiler-server
road 24 2048 15

SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

# run_rung <name> <deadline> — boot the server with the given
# -predict-deadline, register the 2,048-point ROAD histories, run two
# observe→forecast loops for 8s, snapshot /metrics, shut the server
# down. Leaves the per-quality answer counts in $DIR/<name>.quality
# ("<count> <quality>" lines) and the scrape in $DIR/<name>.metrics.
run_rung() {
    "$BIN" -addr "${URL#http://}" -predictor gp \
        -predict-deadline "$2" -degraded-fallback ar1 -log-level warn &
    SRV_PID=$!
    wait_up "$URL"
    register "$URL"
    drive "$1a" 8 1 "$URL" >"$DIR/$1.a" &
    loop=$!
    drive "$1b" 8 1 "$URL" >"$DIR/$1.b" || die "$1 rung: a request failed"
    wait "$loop" || die "$1 rung: a request failed"
    cat "$DIR/$1.a" "$DIR/$1.b" | grep -o '"quality":"[a-z]*"' | cut -d'"' -f4 |
        sort | uniq -c >"$DIR/$1.quality"
    echo "$SMOKE: $1 rung (-predict-deadline $2):" $(cat "$DIR/$1.quality")
    curl -sf "$URL/metrics" >"$DIR/$1.metrics"
    kill "$SRV_PID" && wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
}

# count <name> <quality>: how many of the rung's answers had that quality.
count() {
    awk -v q="$2" '$2 == q { n = $1 } END { print n + 0 }' "$DIR/$1.quality"
}

# Moderate rung: the deadline is comfortably above a full search, so
# nothing may error and nothing may reach the AR(1) fallback.
run_rung moderate 2s
# Aggressive rung: the deadline truncates searches mid-verification,
# so a visible fraction of answers must be progressive — and still
# zero errors: deadline pressure degrades quality, never availability.
run_rung aggressive 1ms

status=0
if [ "$(count moderate exact)" -eq 0 ]; then
    echo "$SMOKE: moderate rung produced no exact answers" >&2
    status=1
fi
if [ "$(count moderate fallback)" -ne 0 ]; then
    echo "$SMOKE: moderate rung hit the AR(1) fallback" >&2
    status=1
fi
if ! awk '{ n += $1; if ($2 == "progressive") p = $1 } END { exit !(p > 0 && p >= 0.01 * n) }' "$DIR/aggressive.quality"; then
    echo "$SMOKE: aggressive rung produced no progressive answers (under 1%)" >&2
    status=1
fi
if ! grep -q 'smiler_predictions_total{quality="exact"}' "$DIR/moderate.metrics"; then
    echo "$SMOKE: /metrics missing per-quality prediction counter" >&2
    status=1
fi
if ! grep -q 'smiler_anytime_quality_estimate' "$DIR/aggressive.metrics"; then
    echo "$SMOKE: /metrics missing quality-estimate histogram" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "$SMOKE: OK"
exit $status
