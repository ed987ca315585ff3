#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload <table1|optimize|diagnose|serve> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# The build, the Go toolchain's caches and every temporary file stay in
# .bench_build at the root of the checkout; the build uses no network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
