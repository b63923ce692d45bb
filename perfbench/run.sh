#!/usr/bin/env bash
# Builds the benchmark and cmd/transnserve from the checkout in the
# current directory, then runs one benchmark invocation with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: binaries, the Go build cache and the run's inputs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/transnserve" ./cmd/transnserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/transnserve" -workdir "$out/run-$$" "$@"
