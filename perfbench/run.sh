#!/bin/sh
# Builds the benchmark from source in this checkout, then runs it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr so the result stays the last stdout line.
cd "$(dirname "$0")/.." || exit 2
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2 || exit 2
exec ./_build/default/perfbench/main.exe "$@"
