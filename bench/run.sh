#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root: bash bench/run.sh [-workload NAME] ...
# The Go build cache, the binary and the traced pass's output stay in
# .bench_build/ under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
