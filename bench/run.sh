#!/usr/bin/env bash
# Builds pubtacbench from this checkout's sources and runs one workload:
#
#   bash bench/run.sh --workload paper-batch --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# daemon workloads' scratch stores all stay under .bench_build/ there; the
# build needs no network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go telemetry off >/dev/null 2>&1 || true
(cd bench && go build -o "$build/pubtacbench" ./cmd/pubtacbench)
exec "$build/pubtacbench" run -tmp "$build/tmp" "$@"
