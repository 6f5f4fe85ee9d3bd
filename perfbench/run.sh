#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tune-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, module and config
# directories, the binary, traced-run spans) stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
