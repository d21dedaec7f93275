#!/usr/bin/env bash
# Builds wsnbench from the checkout it is run in and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload fig1 -seed 1 -seconds 15 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, and the temporary
# journals a workload creates (TMPDIR).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off TMPDIR="$build/tmp"

go -C bench build -buildvcs=false -o "$build/wsnbench" ./cmd/wsnbench
exec "$build/wsnbench" "$@"
