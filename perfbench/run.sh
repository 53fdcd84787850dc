#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload explain-cluster --seed 1 --seconds 32 --trace 0
#
# Every build and cache file stays under .bench_build/ in the checkout.
# Outside a full checkout (no module at the root) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root; run from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
