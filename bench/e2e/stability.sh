#!/usr/bin/env bash
# stability.sh [N] [--seed-base B] [--seconds S] [--against EARLIER.tsv]
#              [--write]
#
# Runs every workload N times (default 5), each run with another seed
# (B, B+1, ...; default B=1), untraced, interleaving workloads so machine
# drift reaches all of them alike. Prints each end-to-end metric's median,
# quartile spread (IQR / median) and max/min per workload, and the bound
# each spread supports (report.py stability). --against compares each
# median with an earlier set's; --write stores the supported bounds in
# BENCHMARK.json. Exits 1 if any run was incorrect, a spread exceeds its
# declared bound or a median got worse than the earlier set's by more.
#
# Raw results stay in <build>/stability-<time>.tsv for a later comparison.
set -euo pipefail

HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)
BUILD=${CARGO_TARGET_DIR:-$ROOT/build-bench}
case $BUILD in /*) ;; *) BUILD=$PWD/$BUILD ;; esac

N=5
BASE=1
SECS=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")
WRITE=
AGAINST=()
while [ $# -gt 0 ]; do
  case $1 in
  --seed-base) BASE=${2:?}; shift 2 ;;
  --seconds) SECS=${2:?}; shift 2 ;;
  --write) WRITE=--write; shift ;;
  --against) AGAINST=(--against "${2:?}"); shift 2 ;;
  [0-9]*) N=$1; shift ;;
  *) sed -n '2,15p' "$0" >&2; exit 2 ;;
  esac
done

"$HERE/run.sh" --build-only
OUT=$BUILD/stability-$(date +%Y%m%d-%H%M%S).tsv
: > "$OUT"
for I in $(seq 0 $((N - 1))); do
  SEED=$((BASE + I))
  for W in $("$BUILD/dai_bench" --list); do
    LINE=$("$HERE/run.sh" --workload "$W" --seed "$SEED" --seconds "$SECS" \
      --trace 0 | tail -n 1) || true
    printf '%s\t%s\t%s\n' "$W" "$SEED" "$LINE" >> "$OUT"
    echo "run $((I + 1))/$N $W seed $SEED" >&2
  done
done
echo "results: $OUT"
python3 "$HERE/report.py" stability "$ROOT/BENCHMARK.json" "$OUT" \
  "${AGAINST[@]}" $WRITE
