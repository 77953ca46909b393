#!/usr/bin/env bash
# Builds reese-bench from the source in this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash cmd/reese-bench/bench.sh -workload serve -seed 3 -seconds 12 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, temp files and
# the trace. The first build compiles the standard library and takes a
# minute or two; later ones reuse the cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f cmd/reese-bench/go.mod ]; then
	echo "bench.sh: run from the root of a full repository checkout (go.mod and cmd/reese-bench/go.mod)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C cmd/reese-bench build -o "$build/reese-bench" . >&2
exec "$build/reese-bench" "$@"
