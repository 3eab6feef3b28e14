#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, binary, trace spans) stays under .bench_build/ in the current
# directory. When the omini module is not in the parent of perfbench/,
# the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans-dir "$out/spans" "$@"
