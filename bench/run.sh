#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments are passed
# through to the bench program. Everything the build and the run write
# stays inside the checkout: the Go build cache, module path, telemetry
# and temporary files and the binaries under .bench_build/, results and
# traces under bench/out/. Nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
