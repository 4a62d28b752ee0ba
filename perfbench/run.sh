#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 15 --trace 0
#
# Every build product (binary, Go build cache, traces and profiles) stays
# under .bench_build/ in the current directory. Without the repository's
# sources beside perfbench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The go command's own config and telemetry files go there as well.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
