#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# given arguments (--workload NAME --seed N --seconds S --trace 0|1).
# Build output goes to stderr, so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/remy_bench.exe >&2
exec ./_build/default/bench/e2e/remy_bench.exe "$@"
