#!/usr/bin/env bash
# bench_json.sh — run the prediction-path benchmarks (the DTW verify
# kernel and the LB_Keogh cascade beneath them, and the continuous_gp
# loop above them with its dtw_runs/op, dtw_cols/op and gp_evals/op
# counts) and emit
# BENCH_predict.json with ns/op, allocs and every custom metric
# (predict-step-ns/op, cell-fit-ns/op, search-ns/op, ...), plus a
# vs_baseline section with the B/op and allocs/op deltas against the
# previously committed file. No dependencies beyond go and awk; CI and
# `make bench-json` call this.
#
# Gates (all skippable with GATE=off for baseline regeneration):
#   - sanity: the ingest metrics=off row must not be slower than
#     metrics=on by >5% — that inversion means swapped labels or an
#     unstable run (the pair runs with INGEST_BENCHTIME=2000x because
#     at 1x a single ~7µs op is pure noise; see PR 8).
#   - regression: predict-path allocs_per_op must not exceed the
#     committed baseline by >10% (with a small absolute slack so the
#     1x CI smoke's unamortized pool misses don't flake the gate), and
#     BenchmarkContinuousGPLoop's, always run at 300 iterations, must not
#     exceed the committed row at all.
#   - work counts, zero tolerance: BenchmarkColumnOptimize's evals/op,
#     gradients/op and allocs/op, BenchmarkContinuousGPLoop's and
#     BenchmarkContinuousGPLoopLong's dtw_runs/op, dtw_cols/op and
#     gp_evals/op and
#     BenchmarkTierEvictFault's, BenchmarkTierColdObserve's and
#     BenchmarkSensorMigrateRoundTrip's allocs/op must equal the
#     committed rows
#     exactly. (The optimizer's allocations are per optimization, never
#     per objective evaluation: a kernel that allocates per evaluation
#     moves its count.) They are counts
#     of work done at a fixed iteration count and repeat to the last
#     digit; a change that means to move one regenerates the file with
#     GATE=off in the same diff and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_predict.json}"
BASELINE="${BASELINE:-$OUT}"
BENCHTIME="${BENCHTIME:-1x}"
# 1x is the CI smoke setting; local runs use BENCHTIME=2s for stable
# numbers. The ingest on/off pair always gets enough iterations for a
# stable ordering — each op is microseconds, so 2000x stays cheap.
INGEST_BENCHTIME="${INGEST_BENCHTIME:-2000x}"
GATE="${GATE:-on}"

raw="$(mktemp)"
base="$(mktemp)"
trap 'rm -f "$raw" "$base"' EXIT
# Snapshot the committed baseline before OUT is overwritten.
if [ -f "$BASELINE" ]; then cp "$BASELINE" "$base"; else : >"$base"; fi

go test ./internal/core -run '^$' -bench 'Benchmark(Predict|PredictSequential|PredictMulti|Observe|ObserveThenSearch)$' \
    -benchmem -benchtime "$BENCHTIME" >>"$raw"
# The verify kernel under every search above, and the LB_Keogh cascade
# in front of it, at the serving shape (d=64, ρ=8), alone and four
# candidates in lock step (one BenchmarkDistanceLanes64 or
# BenchmarkLBKeoghSuffixLanes64 op handles four); the benchmarks
# themselves fail on a single allocation.
go test ./internal/dtw -run '^$' -bench 'Benchmark(Distance(Compressed(Abandon)?|Lanes)|LBKeoghSuffix(Lanes)?)64$' \
    -benchmem -benchtime "$BENCHTIME" >>"$raw"
go test ./internal/ingest -run '^$' -bench 'BenchmarkIngestThroughput/direct' \
    -benchmem -benchtime "$INGEST_BENCHTIME" >>"$raw"
# The GP hyperparameter optimizer on one shared column (k = 8, 16, 32;
# 5 iterations each), the way a warm ensemble column runs it. Fixed at
# 200 iterations like the loop below: its evals/op, gradients/op and
# allocs/op are gated exactly.
go test ./internal/gp -run '^$' -bench 'BenchmarkColumnOptimize$' \
    -benchmem -benchtime 200x >>"$raw"
# The repository benchmark's search-heavy traffic shape without the
# transport (8 sensors × 2,048 ROAD points, observe then forecast).
# Always the same 300 iterations, whatever BENCHTIME says: dtw_runs/op,
# dtw_cols/op and gp_evals/op are counts, and they repeat exactly —
# commit to commit, machine to machine — only at a fixed iteration count.
# Always -cpu 2 too: the simulated device starts a goroutine per worker
# per launch, GOMAXPROCS workers, so the loop's allocs/op depends on the
# CPU count (368 at 1, 417 at 2, 429 at 4) and the committed ceiling is
# a 2-CPU figure.
go test . -run '^$' -bench 'BenchmarkContinuousGPLoop$' \
    -benchmem -benchtime 300x -cpu 2 >>"$raw"
# The same loop at the paper's history length (2 sensors × 65,536
# points), where the index search is the forecast; a fixed 100
# iterations (about 5 s) for the same reason. Its heap_B/sensor — the
# live heap a registered, forecast sensor holds — is reported, not
# gated.
go test . -run '^$' -bench 'BenchmarkContinuousGPLoopLong$' \
    -benchmem -benchtime 100x -cpu 2 >>"$raw"
# One tier round trip per op — fault a 256-point GP sensor in from its
# spill file, evict the other to its own — one cold observe per op — a
# tail append, no fault — and one migration hop per op — SaveSensorTo,
# then RestoreSensorsFrom on a second system — each at a fixed 2,000
# iterations: their allocs/op are gated exactly.
go test . -run '^$' -bench 'Benchmark(TierEvictFault|TierColdObserve|SensorMigrateRoundTrip)$' \
    -benchmem -benchtime 2000x >>"$raw"

awk -v baseline="$base" '
function field(line, key,    m) {
    # Extract a numeric JSON field from one emitted benchmark line.
    if (match(line, "\"" key "\": [-0-9.e+]+")) {
        m = substr(line, RSTART, RLENGTH)
        sub(".*: ", "", m)
        return m
    }
    return ""
}
function bname(line,    m) {
    if (match(line, /"name": "[^"]*"/)) {
        m = substr(line, RSTART + 9, RLENGTH - 10)
        return m
    }
    return ""
}
BEGIN {
    # Only benchmark rows carry B_per_op/allocs_per_op; the baseline
    # file also holds vs_baseline rows, which must not clobber these.
    while ((getline bl < baseline) > 0) {
        bn = bname(bl)
        if (bn == "") continue
        bB = field(bl, "B_per_op")
        bA = field(bl, "allocs_per_op")
        if (bB != "") baseB[bn] = bB
        if (bA != "") baseA[bn] = bA
    }
    close(baseline)
    n = 0
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    out = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, $2)
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $i
        unit = $(i + 1)
        key = unit
        gsub(/\//, "_per_", key)
        gsub(/[^A-Za-z0-9_]/, "_", key)
        out = out sprintf(", \"%s\": %s", key, val)
    }
    out = out "}"
    order[n] = name
    lines[n++] = out
}
END {
    print "{"
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    print "  ],"
    print "  \"vs_baseline\": ["
    nd = 0
    for (i = 0; i < n; i++) {
        bn = order[i]
        if (!(bn in baseA) || baseA[bn] == "" || baseA[bn] + 0 == 0) continue
        curB = field(lines[i], "B_per_op")
        curA = field(lines[i], "allocs_per_op")
        if (curB == "" || curA == "") continue
        dB = 100 * (curB - baseB[bn]) / baseB[bn]
        dA = 100 * (curA - baseA[bn]) / baseA[bn]
        deltas[nd++] = sprintf("    {\"name\": \"%s\", \"B_per_op_delta_pct\": %.1f, \"allocs_per_op_delta_pct\": %.1f}", bn, dB, dA)
    }
    for (i = 0; i < nd; i++) printf "%s%s\n", deltas[i], (i < nd - 1 ? "," : "")
    print "  ]"
    print "}"
}
' "$raw" >"$OUT"

echo "wrote $OUT:"
cat "$OUT"

[ "$GATE" = "on" ] || { echo "gates skipped (GATE=$GATE)"; exit 0; }

# Sanity gate: the ingest pair must not report metrics=on faster than
# metrics=off beyond tolerance.
awk '
function field(line, key,    m) {
    if (match(line, "\"" key "\": [-0-9.e+]+")) {
        m = substr(line, RSTART, RLENGTH); sub(".*: ", "", m); return m
    }
    return ""
}
/"name": "BenchmarkIngestThroughput\/direct\/metrics=on"/  { v = field($0, "ns_per_op"); if (v != "") on = v }
/"name": "BenchmarkIngestThroughput\/direct\/metrics=off"/ { v = field($0, "ns_per_op"); if (v != "") off = v }
END {
    if (on == "" || off == "") { print "bench-json: ingest rows missing"; exit 1 }
    if (on + 0 < off * 0.95) {
        printf "bench-json: SANITY FAIL: metrics=on (%s ns/op) beats metrics=off (%s ns/op) by >5%% — swapped labels or unstable run\n", on, off
        exit 1
    }
    printf "bench-json: ingest sanity ok (on=%s off=%s ns/op)\n", on, off
}
' "$OUT"

# Regression gate: predict-path allocations must stay within 10% of
# the committed baseline (plus 64 allocs absolute slack for the 1x
# smoke, where first-iteration pool misses are unamortized).
awk -v baseline="$base" '
function field(line, key,    m) {
    if (match(line, "\"" key "\": [-0-9.e+]+")) {
        m = substr(line, RSTART, RLENGTH); sub(".*: ", "", m); return m
    }
    return ""
}
function bname(line,    m) {
    if (match(line, /"name": "[^"]*"/)) return substr(line, RSTART + 9, RLENGTH - 10)
    return ""
}
BEGIN {
    while ((getline bl < baseline) > 0) {
        bn = bname(bl)
        if (bn == "") continue
        bA = field(bl, "allocs_per_op")
        if (bA != "") baseA[bn] = bA
    }
    close(baseline)
    fail = 0
}
/"name": "BenchmarkPredict(Sequential|Multi)?"/ {
    bn = bname($0)
    cur = field($0, "allocs_per_op")
    if (!(bn in baseA) || baseA[bn] == "" || cur == "") next
    if (cur + 0 > baseA[bn] * 1.10 && cur - baseA[bn] > 64) {
        printf "bench-json: ALLOC REGRESSION: %s %s allocs/op vs baseline %s (>10%%)\n", bn, cur, baseA[bn]
        fail = 1
    } else {
        printf "bench-json: %s allocs ok (%s vs baseline %s)\n", bn, cur, baseA[bn]
    }
}
/"name": "BenchmarkContinuousGPLoop"/ {
    bn = bname($0)
    cur = field($0, "allocs_per_op")
    if (!(bn in baseA) || baseA[bn] == "" || cur == "") next
    if (cur + 0 > baseA[bn] + 0) {
        printf "bench-json: ALLOC REGRESSION: %s %s allocs/op vs baseline %s (ceiling)\n", bn, cur, baseA[bn]
        fail = 1
    } else {
        printf "bench-json: %s allocs ok (%s, ceiling %s)\n", bn, cur, baseA[bn]
    }
}
END { exit fail }
' "$OUT"

# Work-count gate: exact equality with the committed rows. Skipped only
# when there is no baseline file at all (a fresh OUT path).
[ -s "$base" ] || { echo "bench-json: no baseline, work-count gate skipped"; exit 0; }
awk -v baseline="$base" '
function field(line, key,    m) {
    if (match(line, "\"" key "\": [-0-9.e+]+")) {
        m = substr(line, RSTART, RLENGTH); sub(".*: ", "", m); return m
    }
    return ""
}
function bname(line,    m) {
    if (match(line, /"name": "[^"]*"/)) return substr(line, RSTART + 9, RLENGTH - 10)
    return ""
}
BEGIN {
    gated["BenchmarkColumnOptimize"] = "evals_per_op gradients_per_op allocs_per_op"
    gated["BenchmarkContinuousGPLoop"] = "dtw_runs_per_op dtw_cols_per_op gp_evals_per_op"
    gated["BenchmarkContinuousGPLoopLong"] = "dtw_runs_per_op dtw_cols_per_op gp_evals_per_op"
    gated["BenchmarkTierEvictFault"] = "allocs_per_op"
    gated["BenchmarkTierColdObserve"] = "allocs_per_op"
    gated["BenchmarkSensorMigrateRoundTrip"] = "allocs_per_op"
    while ((getline bl < baseline) > 0) {
        bn = bname(bl)
        if (bn in gated && field(bl, "iterations") != "") base[bn] = bl
    }
    close(baseline)
    fail = 0
}
{
    bn = bname($0)
    if (!(bn in gated) || field($0, "iterations") == "") next
    seen[bn] = 1
    nk = split(gated[bn], keys, " ")
    for (i = 1; i <= nk; i++) {
        cur = field($0, keys[i])
        want = (bn in base) ? field(base[bn], keys[i]) : ""
        if (cur == "" || want == "" || cur + 0 != want + 0) {
            printf "bench-json: WORK COUNT MOVED: %s %s = %s, committed %s (regenerate with GATE=off and say why)\n", bn, keys[i], cur, want
            fail = 1
        } else {
            printf "bench-json: %s %s = %s, as committed\n", bn, keys[i], cur
        }
    }
}
END {
    for (bn in gated) if (!(bn in seen)) { printf "bench-json: %s row missing\n", bn; fail = 1 }
    exit fail
}
' "$OUT"
