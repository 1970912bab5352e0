#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload apache-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary, span
# dumps) stays in .bench_build/ under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
