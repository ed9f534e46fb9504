#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it once.
#
#   bash perfbench/run.sh --workload ingest-uniform --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The Go build cache, the
# binary and everything a run writes stay under .bench_build/ and
# .bench_out/ in that root. The benchmark module replaces `repro` with
# the repository root, so outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOENV=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
