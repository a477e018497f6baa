#!/usr/bin/env bash
# Builds the benchmark driver from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload adhoc|dashboard|tiered --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (Go build cache, temp files, the
# disk-backed data directories, span dumps) goes under .bench_build/ in the
# current directory, which must be the repository root.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
