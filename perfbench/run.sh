#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload eval-trace --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. The binary, the Go build cache
# and the benchmark's scratch files go to $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTELEMETRY=off GOTOOLCHAIN=local
commit=
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || true)
fi
(cd perfbench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
