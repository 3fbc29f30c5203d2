#!/bin/sh
# Profile-guided tuning smoke: tune the two headline relaxation nests
# (fig6, the Jacobi form, and the Gauss-Seidel wavefront revision) and
# replay each tuned table through `run --policy-file`, asserting the
# outputs stay bit-identical to the untuned run.  Part of `make test`.
#
# Usage: tune_smoke.sh [PSC_EXE]
set -eu
psc=${1:-_build/default/bin/psc_main.exe}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for ex in relaxation gauss_seidel; do
  "$psc" tune "examples/ps/$ex.ps" -i M=12 -i maxK=6 \
    -o "$tmp/$ex.policy" 2>"$tmp/$ex.log"
  grep -q '"policy":1' "$tmp/$ex.policy" || {
    echo "tune-smoke: $ex: no policy table produced"; exit 1; }
  "$psc" run "examples/ps/$ex.ps" -i M=12 -i maxK=6 \
    >"$tmp/$ex.base.out"
  "$psc" run "examples/ps/$ex.ps" -i M=12 -i maxK=6 \
    --policy-file "$tmp/$ex.policy" >"$tmp/$ex.tuned.out"
  cmp -s "$tmp/$ex.base.out" "$tmp/$ex.tuned.out" || {
    echo "tune-smoke: $ex: tuned outputs differ from untuned run"; exit 1; }
  echo "tune-smoke: $ex: tuned table replays bit-identically"
done
