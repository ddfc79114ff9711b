#!/usr/bin/env bash
# Builds lolohabench from this checkout and runs it with the given flags.
#
#   bash bench/run.sh --workload bilo-tcp-bulk --seed 42 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ in the checkout, and it never
# downloads anything; lolohabench then builds cmd/lolohad into the same
# directory and keeps its results, spans and daemon state in .bench_out/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/lolohabench" ./lolohabench)
cd "$root"
exec "$build/lolohabench" "$@"
