#!/usr/bin/env bash
# Builds the programs under test and the benchmark driver from source,
# then runs the driver with this script's arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload study-slice --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/predictd ./cmd/metricstudy ./cmd/tracer
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
