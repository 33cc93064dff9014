#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it writes stays inside the checkout: the dune build tree,
# the design cache (perfbench/_cache) and span files (perfbench/_out).
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled XDG_CACHE_HOME="$PWD/_build/.xdg-cache"
dune build --root . ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
