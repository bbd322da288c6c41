#!/usr/bin/env bash
# Builds the extrap binary and the perfbench driver from the checkout's
# sources, then runs the driver with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload warm-whatif --seed 1 --seconds 15 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomodcache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/extrap" ./cmd/extrap
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -extrap "$out/extrap" -workdir "$out" "$@"
