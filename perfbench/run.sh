#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it.
# Usage: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f lib/core/pipeline.ml ] || [ ! -f test/snapshots/ppa.snap ]; then
  echo "perfbench: run from a full source checkout (library sources not found)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
