#!/usr/bin/env sh
# Memory smoke test (PR 8): boot a tiered smiler-server whose
# -max-hot-sensors cap is far below the sensor population, drive mixed
# observe/forecast traffic over the whole population with curl (forcing
# eviction and fault-in churn the whole run), then kill -9 the node and
# replay its WAL into a fresh UNTIERED server. Asserts:
#   - every request of that traffic succeeds,
#   - the tiered node actually churned (sensor fault, eviction and
#     tail-append counters > 0, cold population > 0),
#   - every sensor's post-run forecast on the tiered node is
#     byte-identical to the untiered reference node recovered from the
#     same WAL — spill/fault cycles and crash recovery change nothing.
# Run via `make memory-smoke`.
set -eu
SMOKE=memory-smoke
. scripts/lib.sh

DIR=$(mktemp -d)
BIN="$DIR/smiler-server"
WAL="$DIR/wal"
A="http://127.0.0.1:19181"
B="http://127.0.0.1:19182"
SENSORS=120
CAP=30

go build -o "$BIN" ./cmd/smiler-server

"$BIN" -addr "${A#http://}" -predictor ar -log-level warn \
    -wal-dir "$WAL" -max-hot-sensors "$CAP" -spill-dir "$DIR/spill" &
PID_A=$!
PID_B=""
cleanup() {
    kill -9 "$PID_A" 2>/dev/null || true
    [ -n "$PID_B" ] && kill "$PID_B" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM
wait_up "$A"

# 128-point ROAD histories, then ~8s of observations (one forecast per
# ten) walking a population 4x the hot cap round-robin: every op lands
# on a sensor that was evicted since its last visit. An observation
# appends to the cold sensor's tail file; a forecast faults it in,
# folding the tail into its history.
road "$SENSORS" 128 2
register "$A"
drive m 8 10 "$A" >/dev/null

# The tier must have churned under that load.
faults=$(metric "$A" smiler_sensor_faults_total)
evicts=$(metric "$A" smiler_sensor_evictions_total)
tails=$(metric "$A" smiler_sensor_tail_appends_total)
cold=$(metric "$A" smiler_sensors_cold)
hot=$(metric "$A" smiler_sensors_hot)
echo "$SMOKE: tier churn: faults=$faults evictions=$evicts tail_appends=$tails hot=$hot cold=$cold"
[ "$faults" -gt 0 ] || die "no sensor faults recorded"
[ "$evicts" -gt 0 ] || die "no sensor evictions recorded"
[ "$tails" -gt 0 ] || die "no cold observations appended to tails"
[ "$cold" -gt 0 ] || die "no cold sensors after the run"
[ "$hot" -le $((CAP + 1)) ] || die "hot population $hot exceeds cap $CAP"

# Quiesce: wait until the applied-observation counter stops moving, so
# the forecast sweep (and the WAL tail) reflect a settled state.
prev=-1
i=0
while :; do
    curr=$(metric "$A" smiler_observations_total)
    [ "$curr" = "$prev" ] && break
    prev=$curr
    i=$((i + 1))
    [ "$i" -le 50 ] || die "ingest pipeline never quiesced"
    sleep 0.3
done

# Forecast sweep on the tiered node (faulting every cold sensor in).
mkdir -p "$DIR/fa" "$DIR/fb"
while read -r id; do
    curl -sf "$A/sensors/$id/forecast?h=1" >"$DIR/fa/$id" || die "forecast $id failed on tiered node"
done <"$DIR/ids"

# Crash the tiered node the hard way and recover an untiered reference
# from its WAL.
kill -9 "$PID_A"
wait "$PID_A" 2>/dev/null || true
"$BIN" -addr "${B#http://}" -predictor ar -log-level warn -wal-dir "$WAL" &
PID_B=$!
wait_up "$B"

while read -r id; do
    curl -sf "$B/sensors/$id/forecast?h=1" >"$DIR/fb/$id" || die "forecast $id failed on reference node"
    if ! cmp -s "$DIR/fa/$id" "$DIR/fb/$id"; then
        echo "  tiered:    $(cat "$DIR/fa/$id")" >&2
        echo "  reference: $(cat "$DIR/fb/$id")" >&2
        die "forecast for $id diverged between tiered node and untiered WAL-recovered reference"
    fi
done <"$DIR/ids"

echo "$SMOKE: OK ($SENSORS forecasts bit-identical across tiering + kill -9 recovery)"
