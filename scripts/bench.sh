#!/usr/bin/env bash
# bench.sh — run the tier-2 benchmark subset and gate it with cmd/benchdiff.
#
#   ./scripts/bench.sh            # run + check against scripts/bench_baseline.json,
#                                 # writing BENCH_PR5.json
#   ./scripts/bench.sh refresh    # re-capture the baseline's measured sections
#                                 # (after an intentional perf change, on the
#                                 # machine named in the baseline's cpu field)
#
# Environment:
#   BENCHTIME   go test -benchtime (default 1s; CI uses 0.3s)
#   COUNT       go test -count     (default 1; benchdiff keeps the min ns/op)
#   THRESHOLD   allowed ns/op regression in percent (default 15)
#
# The benchmark set covers the flathash kernel microbenchmarks (Flat vs
# builtin-map on identical workloads), the per-prefetcher training-loop
# benchmarks (BenchmarkTrainLookup: Domino itself, whose allocs/op gate
# pins its zero-allocation step, and the digram, stms, isb and ghb
# baselines), the serving hot path (plain, with
# telemetry enabled, and with the full overload-governance stack armed
# but uncontended — the steady-state price of governance), the telemetry
# sinks themselves (enabled and nil-disabled paths), and the trace
# ingestion paths (BenchmarkTraceReplayThroughput across the buffered,
# mmap and ChampSim decoders, plus BenchmarkStreamNext whose allocs/op
# gate pins the zero-steady-state-allocation contract of the streaming
# replay). Absolute ns/op gates only apply when
# the baseline was captured on the same cpu model; the Flat-vs-Map ratio
# and allocs/op gates apply everywhere. See cmd/benchdiff.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"
mode="${1:-check}"

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

go test -run '^$' -bench . -benchmem -benchtime "$benchtime" -count "$count" \
  ./internal/flathash ./internal/core ./internal/digram ./internal/stms ./internal/isb ./internal/ghb \
  ./internal/serve ./internal/telemetry ./internal/trace \
  | tee "$out"

# The lookup-depth analyses allocate a constant number of table headers per
# call (preallocated to the line-pool bound); their allocs/op gate is what
# catches a return of unhinted grow-as-you-go tables. Kept separate from the
# `-bench .` sweep so the engine scheduling benchmarks stay out of the gate.
go test -run '^$' -bench 'BenchmarkAnalyze' -benchmem -benchtime "$benchtime" -count "$count" \
  ./internal/experiments | tee -a "$out"

case "$mode" in
refresh)
  go run ./cmd/benchdiff -in "$out" -baseline scripts/bench_baseline.json -refresh
  ;;
check)
  go run ./cmd/benchdiff -in "$out" -baseline scripts/bench_baseline.json \
    -out BENCH_PR5.json -threshold "${THRESHOLD:-15}"
  ;;
*)
  echo "usage: $0 [check|refresh]" >&2
  exit 2
  ;;
esac
