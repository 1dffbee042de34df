#!/usr/bin/env bash
# Build overlay_cli and the load generator from source, then run one
# benchmark invocation from the repository root:
#
#   bash churnbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash churnbench/run.sh --smoke
#
# Build output goes to stderr, so the last line of stdout stays the
# result JSON.  The dune cache is off and the compilers' temporary
# files go to .churnbench/tmp, so the build writes only inside the
# checkout.
set -eu
cd "$(dirname "$0")/.."
mkdir -p .churnbench/tmp
TMPDIR="$PWD/.churnbench/tmp" DUNE_CACHE=disabled \
  dune build --root . --display quiet \
  ./churnbench/churnbench.exe ./bin/overlay_cli.exe 1>&2
exec ./_build/default/churnbench/churnbench.exe \
  --serve ./_build/default/bin/overlay_cli.exe "$@"
