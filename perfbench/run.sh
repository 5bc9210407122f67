#!/usr/bin/env bash
# Build dsf_cli and the perfbench program from this checkout's sources, then
# run perfbench with the given arguments, e.g.
#   bash perfbench/run.sh --workload det-path --seed 1 --seconds 50 --trace 0
# Everything it writes stays in the checkout: the build in .bench_build/,
# instances and run outputs in .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp"
dune build --root . --build-dir .bench_build --profile release --cache disabled \
  ./bin/dsf_cli.exe ./perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
