#!/bin/sh
# Profile-guided tuning smoke: tune the two headline relaxation nests
# (fig6, the Jacobi form, and the Gauss-Seidel wavefront revision),
# replay each tuned table through `run --policy cached` asserting the
# outputs stay bit-identical to the untuned run, then re-run the quick
# benchmark sweep and assert that no `_auto` row loses to its `_seq`
# sibling by more than 10% (plus 1ms timer slack).  Part of `make test`.
# The sweep runs in a temporary directory, so the committed
# BENCH_runtime.json is left alone.
#
# Usage: tune_smoke.sh [PSC_EXE] [BENCH_EXE]
set -eu
psc=${1:-_build/default/bin/psc_main.exe}
bench=${2:-_build/default/bench/main.exe}
bench=$(cd "$(dirname "$bench")" && pwd)/$(basename "$bench")
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
    --policy cached --policy-file "$tmp/$ex.policy" >"$tmp/$ex.tuned.out"
  cmp -s "$tmp/$ex.base.out" "$tmp/$ex.tuned.out" || {
    echo "tune-smoke: $ex: tuned outputs differ from untuned run"; exit 1; }
  echo "tune-smoke: $ex: tuned table replays bit-identically"
done

# Wall-time rows on a loaded host jitter; a deterministic regression
# fails all three sweeps, a noise spike does not.
attempt=1
while :; do
  (cd "$tmp" && "$bench" --quick --json >/dev/null)
  if python3 - "$tmp/BENCH_runtime.json" <<'EOF'
import json
import sys

rows = {}
with open(sys.argv[1]) as f:
    for row in json.load(f)["experiments"]:
        rows[row["name"]] = row

bad = []
for name, row in rows.items():
    if not name.endswith("_auto"):
        continue
    seq = rows[name[: -len("_auto")] + "_seq"]
    limit = 1.1 * seq["wall_s"] + 0.001
    if row["wall_s"] > limit:
        bad.append(f"{name}: auto {row['wall_s']:.6f}s > "
                   f"1.1x seq {seq['wall_s']:.6f}s + 1ms (policy {row['policy']})")
if bad:
    print("tune-smoke: auto rows regress past 1.1x sequential:")
    print("\n".join("  " + b for b in bad))
    raise SystemExit(1)
n = sum(1 for name in rows if name.endswith("_auto"))
print(f"tune-smoke: {n} auto rows all within 1.1x of sequential")
EOF
  then break; fi
  [ "$attempt" -ge 3 ] && { echo "tune-smoke: failed after 3 sweeps"; exit 1; }
  attempt=$((attempt + 1))
  echo "tune-smoke: retrying sweep ($attempt/3)"
done
