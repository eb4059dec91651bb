#!/bin/bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, from the root of that checkout. Everything the Go
# toolchain and the benchmark write goes under .bench_build there.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root holds no cyclops module to measure" >&2
	exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
