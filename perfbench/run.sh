#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload adi-dynamic --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout.  Everything it builds or writes stays
# under .bench_build/ (Go build cache included); it needs no network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
