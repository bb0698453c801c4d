#!/usr/bin/env bash
# Builds perfbench and cmd/pktstored from the checkout it is run in, then
# makes one benchmark run. Run it from the repository root; arguments go
# to perfbench, e.g.
#
#   bash perfbench/run.sh --workload daemon_put --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/pktstored" packetstore/cmd/pktstored)
exec "$out/bin/perfbench" -out "$out" -pktstored "$out/bin/pktstored" "$@"
