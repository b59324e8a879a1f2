#!/usr/bin/env bash
# Builds the benchmark binary from this checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload tune-candmc --seed 1 --seconds 30 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout; run outputs (span files, temporary stores) under .bench_out/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no Go module at the checkout root; nothing to benchmark" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build" "$root/.bench_out"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
# Keep the go command's own config and telemetry files inside the checkout.
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
