#!/usr/bin/env bash
# Builds meterd and the benchmark from the checkout this script sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOENV=off \
	XDG_CONFIG_HOME="$out/config"
(cd "$root" && go build -o "$out/bin/meterd" ./cmd/meterd)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -meterd "$out/bin/meterd" -work "$out/runs" "$@"
