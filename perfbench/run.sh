#!/bin/sh
# Build the benchmark and the psc CLI from this checkout, then run one
# workload:
#
#   sh perfbench/run.sh --workload compile|kernels|serve --seed N \
#     --seconds S --trace 0|1
#
# The build uses dune's default _build directory inside the checkout,
# with the shared dune cache off, and temporary files (the compilers')
# go to .perfbench/tmp, so nothing is written outside the checkout.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/psc_main.ml ]; then
  echo "perfbench: not a checkout of the repository (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
if ! command -v dune > /dev/null 2>&1; then
  eval "$(opam env 2> /dev/null)" || true
fi
if ! command -v dune > /dev/null 2>&1; then
  for d in "$HOME"/.opam/*/bin; do
    if [ -x "$d/dune" ]; then PATH="$d:$PATH"; break; fi
  done
fi
mkdir -p .perfbench/tmp
TMPDIR="$PWD/.perfbench/tmp"
export TMPDIR
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/psc_main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
