#!/usr/bin/env bash
# Builds the Rock benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash rockperf/run.sh --workload deep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build
# (Go build cache, the go command's local telemetry, binary, span files,
# scratch cache directories).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/rockperf" .) >&2
cd "$root"
exec "$out/rockperf" "$@"
