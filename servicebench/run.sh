#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the given arguments, e.g.
#
#   bash servicebench/run.sh --workload imagenet_honest --seed 7 --seconds 40 --trace 0
#
# Everything the build and the traced run write stays under
# servicebench/.build: the Go build cache, temporary files, the go command's
# own config directory (telemetry counters), the binary and the span files.
# The build uses the local toolchain and no module proxy: the benchmark
# depends on nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/.build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/servicebench" .)
exec "$build/servicebench" --spans "$build/spans" "$@"
