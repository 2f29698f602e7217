#!/usr/bin/env bash
# Builds ltamd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash ltambench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and every run's data directories
# stay under .bench_build/ in the checkout. Build logs go to stderr; the
# last line of stdout is the result JSON.
set -euo pipefail
root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/ltamd ] || [ ! -f ltambench/go.mod ]; then
	echo "ltambench: run from the root of a full checkout (need go.mod, cmd/ltamd and ltambench)" >&2
	exit 1
fi
out="$root/.bench_build"
# The go tool's caches and config stay in the checkout. Telemetry is off:
# otherwise the go command may start a detached upload process that
# outlives the benchmark.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
gobuild() {
	env GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" \
		XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off \
		go build "$@" >&2
}
gobuild -o "$out/ltamd" ./cmd/ltamd
(cd ltambench && gobuild -o "$out/ltambench" .)
exec "$out/ltambench" -ltamd "$out/ltamd" -work "$out/run" "$@"
