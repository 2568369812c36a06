#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --smoke
#
# Run from the root of a checkout.  Everything the run builds or writes
# stays in the checkout's _build/ (the dune cache is switched off so
# nothing lands in the home directory).
#
# The run is pinned to the last CPU.  Unpinned on a 2-vCPU VM, the
# daemon and client domains landed on the same or on different CPUs from
# run to run, and churn-wide throughput moved by up to 40% with that;
# pinning removes that source of spread.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib/serve ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: not the root of a checkout of the repository" >&2
  exit 2
fi

DUNE_CACHE=disabled dune build --root . ./perfbench/dspbench.exe 1>&2

exe=./_build/default/perfbench/dspbench.exe
if command -v taskset >/dev/null 2>&1; then
  exec taskset -c "$(($(nproc) - 1))" "$exe" "$@"
fi
exec "$exe" "$@"
