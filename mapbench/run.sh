#!/usr/bin/env bash
# Builds the mapper benchmark and the cgramapd daemon from the source tree,
# then runs the benchmark. Run from the repository root:
#
#   bash mapbench/run.sh --workload ladder --seed 1 --seconds 36 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/mapbench"
mkdir -p "$out/gocache" "$out/tmp"
# Keep every file the go command writes (build cache, telemetry, config)
# inside the checkout, and never reach for the network.
gobuild() {
  GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
    GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off go build -C mapbench "$@"
}
gobuild -o "$out/mapbench" .
gobuild -o "$out/cgramapd" cgramap/cmd/cgramapd
exec "$out/mapbench" -daemon "$out/cgramapd" -spans "$out/spans" "$@"
