#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout root, e.g.
#
#   bash perfbench/run.sh --workload svc_json --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary, run records and
# trace files all stay under .bench_build/ in the checkout. The build
# uses the local toolchain only and never fetches anything.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go -C "$here" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
