#!/usr/bin/env bash
# Builds ncc_bench from this checkout (an up-to-date check, well under a
# second, once built) and runs one workload; the last line of stdout is the
# run's JSON result.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# With --trace 1 the run writes build-bench/traces/NAME-N.json and fails
# unless trace_check accepts it. Build output goes to stderr.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload="" seed="" seconds="" trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
if [ -z "$workload" ] || [ -z "$seed" ] || [ -z "$seconds" ]; then
  echo "usage: run.sh --workload NAME --seed N --seconds T --trace 0|1" >&2
  exit 2
fi

build=build-bench
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j4 --target ncc_bench trace_check >&2

args=(--workload "$workload" --seed "$seed" --seconds "$seconds")
if [ "$trace" = 1 ]; then
  mkdir -p "$build/traces"
  trace_file="$build/traces/$workload-$seed.json"
  args+=(--trace "$trace_file")
fi
# A failed verification still prints its result line ("correct": false).
status=0
out=$("$build/ncc_bench" "${args[@]}") || status=$?
if [ "$status" = 0 ] && [ "$trace" = 1 ] && ! "$build/ncc/trace_check" "$trace_file" >&2; then
  echo "run.sh: trace_check rejected $trace_file" >&2
  exit 1
fi
if [ -n "$out" ]; then printf '%s\n' "$out"; fi
exit "$status"
