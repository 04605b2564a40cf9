#!/usr/bin/env bash
# Builds the gridvo benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload fig9-sweep --seed 42 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
