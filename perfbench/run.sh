#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload hotspot|predict|fleet --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's result object. Temporary files and the
# traced run's span files land in .perfbench/ under the root.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f perfbench/main.ml ]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi

# everything the benchmark builds or writes stays inside the checkout:
# no shared dune cache, and compiler temporaries under .perfbench/
export DUNE_CACHE=disabled
mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp"
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
