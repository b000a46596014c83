#!/bin/sh
# Builds saperf from the sources of the checkout this script sits in, then
# runs it with the given arguments. Run it from the checkout root:
#
#   sh saperf/run.sh --workload lease-churn --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and any Go tool state stay inside the
# checkout, under .bench_build.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build"
go telemetry off 2>/dev/null || true
(cd "$root/saperf" && go build -o "$build/saperf" .)
exec "$build/saperf" "$@"
