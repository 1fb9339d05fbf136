#!/usr/bin/env bash
# Builds pptbench from the checkout it is run in and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash cmd/pptbench/run.sh --workload ws-leafspine --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# spill files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

go build -C cmd/pptbench -o "$out/pptbench" .
exec "$out/pptbench" "$@"
