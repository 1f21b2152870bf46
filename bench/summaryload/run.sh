#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness into
# .bench_build/ (with the Go build cache kept there too, so a run writes
# nothing outside the checkout) and hands it the driver's arguments.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/summaryload"
mkdir -p "$build"
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/summaryload" .)
exec "$build/summaryload" -repo "$root" -build "$build" "$@"
