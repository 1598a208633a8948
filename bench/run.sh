#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file this writes — build cache, compiler scratch, the go command's own
# counters, binaries, generated data — stays under the checkout's
# .bench_build/ (and bench/out/ for traces).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "bench: $root holds no go.mod: the benchmark builds renumd and the library from the repository's source" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
go build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
