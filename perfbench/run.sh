#!/usr/bin/env bash
# Builds indoorqd and the load generator from the checkout this script
# sits in, then runs one benchmark invocation. Run from the checkout
# root:
#
#   bash perfbench/run.sh --workload city-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build
# (Go build cache included), so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off

go build -o "$out/indoorqd" ./cmd/indoorqd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -daemon "$out/indoorqd" "$@"
