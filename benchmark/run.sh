#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write — Go's build
# cache, the binary, scratch files — stays under .bench_build/ in the
# checkout, so the command neither reads nor writes anything outside it.
#
#   bash benchmark/run.sh --workload analysis_wan --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -f davix.go ]; then
	echo "benchmark: $root is not a checkout of the repository (no go.mod, no davix.go): nothing to measure" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"

go build -o "$build/davix-benchmark" ./benchmark
exec "$build/davix-benchmark" "$@"
