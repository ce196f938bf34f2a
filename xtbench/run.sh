#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash xtbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build writes (Go build cache, temporary files, the binary,
# traces) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0

(cd "$root/xtbench" && go build -o "$out/xtbench" .)
exec "$out/xtbench" "$@"
