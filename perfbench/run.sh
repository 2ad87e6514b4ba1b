#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload local-warm --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span dumps go to .bench_build/ in the
# checkout; nothing is written outside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
