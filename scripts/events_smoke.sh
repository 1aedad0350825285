#!/usr/bin/env sh
# Flight-recorder smoke test: exercise the event ring across a full
# crash-recovery lifecycle. Boots smiler-server with a WAL and a
# checkpoint, asserts /debug/events serves the boot marker, then:
#
#   1. SIGTERM  -> the retained ring is dumped to stderr ("flight
#      recorder" block) and the shutdown checkpoint/wal_reset events
#      are recorded on the way out.
#   2. restart  -> /debug/events shows checkpoint_restore (state came
#      back from the shutdown checkpoint).
#   3. kill -9 after more writes, restart -> /debug/events shows
#      wal_replay (the uncovered WAL tail was replayed).
#
# Run via `make events-smoke`.
set -eu
SMOKE=events-smoke
. scripts/lib.sh

DIR=$(mktemp -d)
BIN="$DIR/smiler-server"
ADDR=127.0.0.1:18081
LOG="$DIR/server.log"

go build -o "$BIN" ./cmd/smiler-server

start_server() {
    "$BIN" -addr "$ADDR" -predictor ar -log-level warn \
        -wal-dir "$DIR/wal" -checkpoint "$DIR/ckpt" 2>>"$LOG" &
    PID=$!
    wait_up "http://$ADDR"
}

cleanup() {
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

start_server

HIST=$(awk 'BEGIN{s="";for(i=0;i<300;i++){v=10+3*sin(2*3.14159265*i/24);s=s (i?",":"") v}print s}')
curl -sf -X POST "http://$ADDR/sensors" \
    -H 'Content-Type: application/json' \
    -d "{\"id\":\"smoke\",\"history\":[$HIST]}" >/dev/null
curl -sf -X POST "http://$ADDR/sensors/smoke/observe" \
    -H 'Content-Type: application/json' -d '{"value": 11.5}' >/dev/null

EVENTS=$(curl -sf "http://$ADDR/debug/events")
case "$EVENTS" in
*'"type":"startup"'*) ;;
*)
    echo "events-smoke: /debug/events missing the startup event: $EVENTS" >&2
    exit 1
    ;;
esac

# Graceful stop: the ring must land in the crash log.
kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
if ! grep -q 'flight recorder (shutdown' "$LOG"; then
    echo "events-smoke: SIGTERM did not dump the flight recorder" >&2
    cat "$LOG" >&2
    exit 1
fi
if ! grep -q 'checkpoint' "$LOG"; then
    echo "events-smoke: dumped ring is missing the shutdown checkpoint event" >&2
    cat "$LOG" >&2
    exit 1
fi

# Clean restart: state restores from the shutdown checkpoint and the
# restore is an event.
start_server
EVENTS=$(curl -sf "http://$ADDR/debug/events")
case "$EVENTS" in
*'"type":"checkpoint_restore"'*) ;;
*)
    echo "events-smoke: restart missing checkpoint_restore event: $EVENTS" >&2
    exit 1
    ;;
esac

# Crash (no shutdown checkpoint): the WAL tail is uncovered, so the
# next boot replays it and records wal_replay.
curl -sf -X POST "http://$ADDR/sensors/smoke/observe" \
    -H 'Content-Type: application/json' -d '{"value": 12.5}' >/dev/null
curl -sf "http://$ADDR/sensors/smoke/forecast?h=1" >/dev/null
sleep 0.5 # let the ingestion pipeline drain to the WAL before the crash
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

start_server
EVENTS=$(curl -sf "http://$ADDR/debug/events")
case "$EVENTS" in
*'"type":"wal_replay"'*) ;;
*)
    echo "events-smoke: post-crash boot missing wal_replay event: $EVENTS" >&2
    exit 1
    ;;
esac

echo "events-smoke: OK (startup, shutdown dump, checkpoint_restore, wal_replay)"
