#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root.  Everything the build and the run write (Go's build cache
# and temporary files, the binary, the servers' disk tier) lands under
# .bench_build/ and benchmark/out/, both ignored by git.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/agcm-benchmark" .)
cd "$root"
exec "$build/agcm-benchmark" "$@"
