#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root. Every toolchain directory (build cache, module cache, temp
# files, the binary) lives under .bench_build/, so nothing outside the
# checkout is written and a missing $HOME does not matter.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/pcsi-perfbench" .)
cd "$root"
exec "$build/pcsi-perfbench" "$@"
