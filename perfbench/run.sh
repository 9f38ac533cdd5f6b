#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#	bash perfbench/run.sh --workload odoh-open --seed 1 --seconds 50 --trace 0
#
# Run from the repository root. The Go build and module caches, the
# binary and the span files all stay under .bench_build/ in the
# current directory. Without the repository's own module beside
# perfbench/ the build fails and the script exits nonzero before
# printing any result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
