#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it from the checkout root with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload server-paper --seed 1 --seconds 20 --trace 0
#
# Build caches, temporary files and the binary stay under .bench_build/
# in the checkout; the traced run's spans and profile go to .bench_out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/cache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
