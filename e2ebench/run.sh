#!/bin/sh
# Builds and runs the repository benchmark from the repository root:
#
#   sh e2ebench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build in the repository root.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/e2ebench" -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
