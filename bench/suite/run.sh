#!/bin/sh
# Build the benchmark suite and the pslocal server it drives, then run
# the suite with the given arguments.  Run from the repository root:
#
#   sh bench/suite/run.sh --workload reduce-default --seed 1 --seconds 20 --trace 0
#
# The dune cache stays off and the build directory stays ./_build, so
# the build reads and writes only the checkout.
set -eu
export DUNE_CACHE=disabled
unset DUNE_BUILD_DIR
dune build --root . --display quiet bench/suite/suite.exe bin/pslocal.exe 1>&2
exec ./_build/default/bench/suite/suite.exe "$@"
