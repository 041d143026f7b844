#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build writes — the Go build cache
# included — goes under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C "$here" -o "$build/upsl-benchmark" .
cd "$root"
exec "$build/upsl-benchmark" "$@"
