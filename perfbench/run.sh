#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# a checkout of the repository:
#
#   bash perfbench/run.sh --workload serve-exec --seed 1 --seconds 38 --trace 0
#
# The binary and the Go build caches go to .bench_build/ in the checkout,
# so nothing outside it is written. A tree without the repository's Go
# module fails to build, and the script exits non-zero.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
