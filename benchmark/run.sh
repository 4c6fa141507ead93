#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it writes stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build): the binary, the
# Go build cache and temporary files, and the traced runs' span dumps.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache GOPATH=$build/go-path XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/benchmark" build -o "$build/benchmark" .
exec "$build/benchmark" --spans "$build/spans" "$@"
