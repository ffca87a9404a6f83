#!/usr/bin/env bash
# ab.sh REV_A REV_B [--pairs N] [--workloads W,W,...] [--seconds S]
#
# Local A/B of two revisions measured with identical benchmark code. Each
# revision is exported with `git archive` into build-ab/<sha>/src, the
# working tree's bench/e2e and BENCHMARK.json are copied over it, and it is
# built in build-ab/<sha>/build. Then N pairs (default 10) run per
# workload (default all), alternating which side goes first; both sides of
# pair i run seed i. report.py ab prints each side's median and quartiles,
# B's win rate and a verdict per metric: B better only when B wins at least
# 9 of 10 pairs and the medians differ by more than A's quartile spread.
#
# Raw results stay in build-ab/ab-<time>.tsv.
set -euo pipefail

HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)

usage() { sed -n '2,13p' "$0" >&2; exit 2; }
[ $# -ge 2 ] || usage
REV_A=$1
REV_B=$2
shift 2
PAIRS=10
WORKLOADS=
SECS=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")
while [ $# -gt 0 ]; do
  case $1 in
  --pairs) PAIRS=${2:?}; shift 2 ;;
  --workloads) WORKLOADS=$(echo "${2:?}" | tr , ' '); shift 2 ;;
  --seconds) SECS=${2:?}; shift 2 ;;
  *) usage ;;
  esac
done

OUTDIR=$ROOT/build-ab

# Exports, overlays and builds one revision; prints its directory.
prepare() {
  local Sha Dir
  Sha=$(git -C "$ROOT" rev-parse --short "$1^{commit}")
  Dir=$OUTDIR/$Sha
  if [ ! -d "$Dir/src" ]; then
    mkdir -p "$Dir/src"
    git -C "$ROOT" archive "$Sha" | tar -x -C "$Dir/src"
  fi
  rm -rf "$Dir/src/bench/e2e"
  mkdir -p "$Dir/src/bench"
  cp -R "$HERE" "$Dir/src/bench/e2e"
  cp "$ROOT/BENCHMARK.json" "$Dir/src/BENCHMARK.json"
  CARGO_TARGET_DIR=$Dir/build bash "$Dir/src/bench/e2e/run.sh" --build-only
  echo "$Dir"
}

DIR_A=$(prepare "$REV_A")
DIR_B=$(prepare "$REV_B")
[ -n "$WORKLOADS" ] || WORKLOADS=$("$DIR_A/build/dai_bench" --list)

RES=$OUTDIR/ab-$(date +%Y%m%d-%H%M%S).tsv
: > "$RES"
for P in $(seq 1 "$PAIRS"); do
  for W in $WORKLOADS; do
    if [ $((P % 2)) = 1 ]; then ORDER="A B"; else ORDER="B A"; fi
    for SIDE in $ORDER; do
      if [ "$SIDE" = A ]; then DIR=$DIR_A; else DIR=$DIR_B; fi
      LINE=$(CARGO_TARGET_DIR=$DIR/build bash "$DIR/src/bench/e2e/run.sh" \
        --workload "$W" --seed "$P" --seconds "$SECS" --trace 0 |
        tail -n 1) || true
      printf '%s\t%s\t%s\t%s\n' "$SIDE" "$W" "$P" "$LINE" >> "$RES"
    done
    echo "pair $P/$PAIRS $W" >&2
  done
done
echo "A = $REV_A ($DIR_A), B = $REV_B ($DIR_B); results: $RES"
python3 "$HERE/report.py" ab "$ROOT/BENCHMARK.json" "$RES"
