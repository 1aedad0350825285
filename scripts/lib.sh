# Helpers shared by the smoke scripts; source it with `. scripts/lib.sh`
# after setting SMOKE (the prefix of every message). Traffic helpers
# also need DIR, a scratch directory the caller removes on exit.

# CURL issues every request: silent but for errors, and a non-2xx
# answer is a failure. A script may append retry options to it.
CURL="curl -sSf"

# die MSG...: report on stderr and exit 1.
die() {
    echo "$SMOKE: $*" >&2
    exit 1
}

# wait_up URL...: poll each node's /healthz until it answers.
wait_up() {
    for url; do
        i=0
        until curl -sf "$url/healthz" >/dev/null 2>&1; do
            i=$((i + 1))
            [ "$i" -le 100 ] || die "node $url did not come up"
            sleep 0.2
        done
    done
}

# metric URL NAME: the value of one sample on URL's /metrics (0 if absent).
metric() {
    curl -sf "$1/metrics" | awk -v name="$2" '$1 == name { v = $2 } END { print v + 0 }'
}

# road SENSORS POINTS DAYS: a ROAD corpus from smiler-datagen. Writes
# the sensor ids to $DIR/ids, one registration body per sensor (its
# first POINTS values as history) to $DIR/reg, and the rest of the
# corpus, time step by time step, as "id value" lines to $DIR/plan.
road() {
    go run ./cmd/smiler-datagen -kind road -sensors "$1" -days "$3" -o "$DIR/road.csv"
    awk -F, -v pts="$2" -v dir="$DIR" '
        NR == 1 { for (i = 1; i <= NF; i++) { id[i] = $i; print $i > (dir "/ids") }; next }
        NR <= pts + 1 { for (i = 1; i <= NF; i++) h[i] = h[i] (NR > 2 ? "," : "") $i; next }
        { for (i = 1; i <= NF; i++) print id[i], $i > (dir "/plan") }
        END { for (i = 1; i in id; i++) printf "{\"id\":\"%s\",\"history\":[%s]}\n", id[i], h[i] > (dir "/reg") }
    ' "$DIR/road.csv"
}

# register URL...: POST every $DIR/reg body, round-robin over the URLs.
register() {
    while read -r body; do
        id=${body#*\"id\":\"}
        id=${id%%\"*}
        printf '%s' "$body" | $CURL -X POST "$1/sensors" -H "X-Smiler-Idempotency-Key: reg-$id" \
            -H 'Content-Type: application/json' -d @- >/dev/null || die "register $id via $1 failed"
        u=$1 && shift && set -- "$@" "$u"
    done <"$DIR/reg"
}

# drive TAG SECONDS EVERY URL...: replay $DIR/plan as observations,
# round-robin over the URLs and from the top again when it runs out,
# for SECONDS. After every EVERY-th observation it also forecasts that
# sensor (h=1) and prints the body. Every POST carries an idempotency
# key unique to TAG, so a retried one applies once. Stops with an
# error on the first request that fails.
drive() {
    tag=$1 end=$(($(date +%s) + $2)) every=$3
    shift 3
    n=0
    while cat "$DIR/plan"; do :; done | while read -r id v; do
        n=$((n + 1))
        $CURL -X POST "$1/sensors/$id/observe" -H "X-Smiler-Idempotency-Key: $tag-$n" \
            -H 'Content-Type: application/json' -d "{\"value\":$v}" >/dev/null || die "observe $id via $1 failed"
        if [ $((n % every)) -eq 0 ]; then
            $CURL "$1/sensors/$id/forecast?h=1" || die "forecast $id via $1 failed"
            echo
            [ "$(date +%s)" -lt "$end" ] || break
        fi
        u=$1 && shift && set -- "$@" "$u"
    done
}
