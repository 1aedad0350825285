#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"), run from the checkout
# root as: bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the benchmark (and, from inside it, cmd/smiler-server) from
# source with every Go cache under .bench_build/ in the checkout, then
# runs one workload. In a directory without the repository's sources the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C "$here" -o "$build/bin/smiler-benchmark" .
cd "$root"
exec "$build/bin/smiler-benchmark" "$@"
