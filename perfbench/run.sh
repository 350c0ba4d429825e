#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-sim --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# write-ahead logs, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
