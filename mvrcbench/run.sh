#!/usr/bin/env bash
# Builds mvrcbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash mvrcbench/run.sh --workload warm-serve --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache and temporary files, the state
# dirs and the trace files. Nothing is downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	GOFLAGS=-mod=mod
(cd "$root/mvrcbench" && go build -o "$out/mvrcbench" .)
exec "$out/mvrcbench" "$@"
