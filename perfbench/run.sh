#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload sim-saturated --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the records.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home" "$build/bin"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/home/go" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Build every time: the Go build cache keeps an unchanged rebuild short, and
# a binary built from other sources is never run.
bin="$build/bin/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
cd "$root"
exec "$bin" "$@"
