#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pbuf --seed 1 --seconds 28 --trace 0
#
# Everything the build writes (Go build cache, binary, span files) stays
# under .bench_build at the root of the checkout. The build fails, and the
# script exits non-zero without a result, when the repository sources are
# not next to this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out" "$@"
