#!/usr/bin/env bash
# Builds cmd/hetbench from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash cmd/hetbench/run.sh --workload cwf-stream --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the working directory, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/cmd/hetbench" && go build -o "$out/bin/hetbench" .)
exec "$out/bin/hetbench" "$@"
