#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a module of its
# own, see go.mod) and runs it from the repository root. Everything the Go
# toolchain and the benchmark write lands under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/mixen-benchmark" .
exec "$build/mixen-benchmark" "$@"
