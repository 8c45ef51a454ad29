#!/usr/bin/env bash
# Builds brainy-serve, brainy-train and the benchmark from this checkout
# into .bench_build, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload hot-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# run artifacts all stay under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on ("local" is the default), the go command may start a
# detached upload process that outlives the build; turning it off in the
# config directory above keeps it from starting.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/brainy-serve ./cmd/brainy-train
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -models perfbench/models.json -out "$out/runs" "$@"
