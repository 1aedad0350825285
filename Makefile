# Developer entry points; CI runs the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build vet test race fuzz-smoke benchmark-check benchmark-smoke bench bench-ingest bench-obs bench-json metrics-smoke events-smoke torture cluster-smoke cluster-smoke-procs memory-smoke membership-smoke anytime-smoke

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Ten seconds of fuzzing the banded-DTW verify kernel against the
# modulus-indexed kernel it replaced (internal/dtw/kernel_oracle_test.go):
# distances bit for bit, processed-column counts exactly — with no
# remaining-cost bound and with an all-zero one — and, with the LB_Keogh
# suffix sums the verifier hands it, never abandoning a pair whose full
# distance is within the cutoff. Then ten seconds of the lane kernel
# against that kernel: four finite candidates in lock step, each lane's
# distance bits and column count equal to a scalar call's, with and
# without the bound. Then ten seconds of the spill-file
# decoder (spill.go): arbitrary bytes never panic it, and any input it
# accepts re-encodes to the same bytes.
fuzz-smoke:
	$(GO) test ./internal/dtw -run '^$$' -fuzz FuzzDistanceCompressedAbandon -fuzztime 10s
	$(GO) test ./internal/dtw -run '^$$' -fuzz FuzzDistanceLanes -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz FuzzDecodeSpill -fuzztime 10s

# benchmark/ is its own module (replace smiler => ../), so `./...` above
# never compiles it — yet it builds against index.SearchCtx,
# core.PipelineConfig and core.Pipeline.Timing. Vet and unit-test it so
# an API change that breaks the repository benchmark fails here (<5 s).
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Three short, fixed-work runs of the repository benchmark against a
# freshly built smiler-server: 12 rounds of the write-heavy workload
# (bulk ingest through the WAL with forecasts beside them), 6 rounds of
# the search-heavy one (2,048-point histories, every observation
# followed by a forecast), and 6 of the same traffic on three replicated
# nodes — the only smoke whose requests take the forward hop and whose
# followers register sensors through AddSensor. The exit code is the
# verdict — counts reconcile, no forecast read pre-observe state, and
# every oracle sensor's served means and variances are bit-identical to
# an in-process replay (~30 s).
benchmark-smoke:
	bash benchmark/run.sh --workload ingest_durable --seed 1 -rounds 12 --trace 0
	bash benchmark/run.sh --workload continuous_gp --seed 1 -rounds 6 --trace 0
	bash benchmark/run.sh --workload cluster_replicated --seed 1 -rounds 6 --trace 0

# Paper-shape benchmarks (Tables 3-4, Figs 7-13).
bench:
	$(GO) test -bench . -run '^$$' ./...

# Ingestion pipeline throughput: direct Observe vs sharded bulk ingest.
bench-ingest:
	$(GO) test ./internal/ingest -bench Throughput -run '^$$'

# Instrumentation overhead: metrics registry enabled vs DisableMetrics.
bench-obs:
	$(GO) test -bench 'ObservabilityOverhead|Scrape' -run '^$$' .
	$(GO) test ./internal/ingest -bench 'Throughput/direct' -run '^$$'

# Machine-readable prediction-path benchmark numbers: predict,
# predict-multi, observe, ingest, the GP column optimizer and the
# continuous_gp loop — ns/op + allocs into BENCH_predict.json
# (scripts/bench_json.sh; BENCHTIME=2s for stable local numbers,
# default 1x is the CI smoke). Fails if the optimizer's evals/op and
# gradients/op, the loop's dtw_runs/op, dtw_cols/op and gp_evals/op or
# the tier round trip's allocs/op differ from the committed rows at all.
bench-json:
	./scripts/bench_json.sh

# End-to-end scrape check: boot the real server, feed one sensor,
# predict, and assert the required metric families appear in /metrics
# and the trace endpoint serves spans (scripts/metrics_smoke.sh).
metrics-smoke: build
	./scripts/metrics_smoke.sh

# Flight-recorder lifecycle check: boot with WAL + checkpoint, assert
# /debug/events serves the ring, SIGTERM dumps it to stderr, a clean
# restart records checkpoint_restore, and a kill -9 crash makes the
# next boot record wal_replay (scripts/events_smoke.sh).
events-smoke: build
	./scripts/events_smoke.sh

# Fault-tolerance suite under the race detector: seeded crash-recovery
# kill points (WAL truncation/corruption at >120 boundaries plus torn
# tails), per-fsync-policy recovery properties, degraded-mode fallback
# behaviour, and the 1k-injected-panic survival test. All seeds are
# fixed — failures reproduce deterministically.
torture:
	$(GO) test -race -run 'Torture|RecoveredHistory|WALLifecycle|Degrade|Panic' ./cmd/smiler-server ./internal/server .
	$(GO) test -race ./internal/wal ./internal/fault ./internal/baselines

# Cluster suite under the race detector: 3-node in-process harness —
# forwarding, async replication + gap resync, owner-death failover to
# a degraded replica, bit-exact migration, idempotent retry dedupe
# through the proxy (docs/CLUSTER.md).
cluster-smoke:
	$(GO) test -race -count=3 -run 'TestCluster|TestPeer' ./internal/cluster

# Same story against three real smiler-server processes on loopback
# ports (scripts/cluster_smoke.sh).
cluster-smoke-procs: build
	./scripts/cluster_smoke.sh

# Quality ladder end to end: a -predict-deadline sweep under two curl
# observe→forecast loops — moderate deadline answers exactly with zero
# AR(1) fallbacks, aggressive deadline answers progressively with zero
# errors, per-quality counters live on /metrics
# (scripts/anytime_smoke.sh, docs/INDEX.md).
anytime-smoke: build
	./scripts/anytime_smoke.sh

# Dynamic membership end to end: a real 3-process cluster under
# sustained curl traffic (retried, idempotency-keyed) admits a fourth
# node (-cluster-join), then decommissions n3 (POST /cluster/decommission
# → drain → clean exit 0) — with zero request errors
# (scripts/membership_smoke.sh, docs/CLUSTER.md).
membership-smoke: build
	./scripts/membership_smoke.sh

# Hot/cold tiering end to end: a server capped at -max-hot-sensors 30
# serves a 120-sensor population under curl observe/forecast traffic
# (spill/fault churn), is killed -9, and its WAL replays into an
# untiered reference whose forecasts must be byte-identical
# (scripts/memory_smoke.sh).
memory-smoke: build
	./scripts/memory_smoke.sh
