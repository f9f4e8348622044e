#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload engine-readmostly --seed 1 --seconds 10 --trace 0
# Run it from the repository root. The build cache, the binary and the
# span files all stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" -out "$out/perfbench" "$@"
