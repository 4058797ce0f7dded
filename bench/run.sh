#!/usr/bin/env bash
# Runs the benchmark from the root of a checkout. Everything the Go
# toolchain writes (build cache, module cache, temporary files) is kept
# under .bench_build in that checkout, so a run touches nothing outside
# it. Arguments are passed through; see README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
exec go -C "$root/bench" run . "$@"
