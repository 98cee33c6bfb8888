#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload fleet-mixed --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own files
# (GOPATH, its config directory) stay under .bench_build/ in the checkout.
# A failed build exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
