#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. The compiler's cache,
# temporary files and telemetry counters go there too, so nothing is
# written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
XDG_CONFIG_HOME="$build/config" go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
