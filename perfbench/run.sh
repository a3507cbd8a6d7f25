#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one workload.
#
#   bash perfbench/run.sh --workload mc-krogan --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build product and run output stays
# under .bench_build/ in that root. Without the repository's go.mod beside
# perfbench/ the build fails, and the script exits non-zero without printing
# a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/run" "$@"
