#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): builds the harness from
# source and runs it with the driver's arguments. Everything the Go toolchain
# writes - build cache, module cache, its own state under $HOME - is sent to
# .bench_build/ in the checkout, so a run reads and writes only there and in
# bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/bin"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
