#!/usr/bin/env bash
# Builds rspqd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the checkout root. Build output goes to standard error, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$out/rspqd" ./cmd/rspqd) >&2
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -root "$root" -rspqd "$out/rspqd" "$@"
