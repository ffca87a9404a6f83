#!/usr/bin/env bash
# run.sh — builds and runs the end-to-end benchmark (see README.md here).
#
#   bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#       One run of one workload. The last stdout line is the result object
#       {"correct", "attempted", "failed", "metrics"}; the lines before it
#       print every metric with its unit and sample count.
#   bench/e2e/run.sh [--seed S] [--seconds N] [--trace]
#       Every workload, each in its own process. Exits 1 if any run fails a
#       correctness check.
#   bench/e2e/run.sh --smoke
#       Every workload at toy size, plain and traced, all oracles on. Checks
#       each result against BENCHMARK.json, the ledger's span coverage and
#       the Chrome trace export. Takes about 5 s after the build.
#   bench/e2e/run.sh --build-only
#       Builds dai_bench and exits.
#
# dai_bench is built (Release) on first use into $CARGO_TARGET_DIR when
# set, else build-bench/ at the repository root; later runs only re-check
# the build. Build output goes to stderr.
set -euo pipefail

HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)
BUILD=${CARGO_TARGET_DIR:-$ROOT/build-bench}
case $BUILD in /*) ;; *) BUILD=$PWD/$BUILD ;; esac

usage() {
  sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
}

WORKLOAD=
SEED=42
SECS=10
TRACE=0
SMOKE=0
BUILD_ONLY=0
while [ $# -gt 0 ]; do
  case $1 in
  --workload) WORKLOAD=${2:?--workload needs a value}; shift 2 ;;
  --seed) SEED=${2:?--seed needs a value}; shift 2 ;;
  --seconds) SECS=${2:?--seconds needs a value}; shift 2 ;;
  --trace)
    if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
      TRACE=$2
      shift 2
    else
      TRACE=1
      shift
    fi
    ;;
  --smoke) SMOKE=1; shift ;;
  --build-only) BUILD_ONLY=1; shift ;;
  -h | --help) usage; exit 0 ;;
  *) echo "run.sh: unknown argument $1" >&2; usage >&2; exit 2 ;;
  esac
done

if [ ! -f "$BUILD/Makefile" ]; then
  cmake -G "Unix Makefiles" -S "$HERE" -B "$BUILD" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$BUILD" --target dai_bench -j 2 >&2
[ "$BUILD_ONLY" = 1 ] && exit 0
BIN=$BUILD/dai_bench
TRACES=$BUILD/traces
mkdir -p "$TRACES"

if [ -n "$WORKLOAD" ] && [ "$SMOKE" = 0 ]; then
  exec "$BIN" --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECS" \
    --trace "$TRACE" --trace-dir "$TRACES"
fi

OUT=$BUILD/run.out
STATUS=0
if [ "$SMOKE" = 1 ]; then
  START=$(date +%s)
  for W in $("$BIN" --list); do
    [ -n "$WORKLOAD" ] && [ "$W" != "$WORKLOAD" ] && continue
    for T in 0 1; do
      if ! "$BIN" --smoke --workload "$W" --seed 42 --seconds 0.3 \
        --trace "$T" --trace-dir "$TRACES" > "$OUT"; then
        echo "FAIL [smoke]: $W --trace $T exited nonzero" >&2
        STATUS=1
      fi
      python3 "$HERE/report.py" check-run "$ROOT/BENCHMARK.json" "$T" \
        "$OUT" || STATUS=1
      if [ "$T" = 1 ]; then
        sh "$ROOT/scripts/check_trace_json.sh" "$TRACES/$W-42.json" ||
          STATUS=1
      fi
    done
    echo "smoke $W done"
  done
  echo "smoke: $(( $(date +%s) - START )) s, status $STATUS"
  exit $STATUS
fi

for W in $("$BIN" --list); do
  if ! "$BIN" --workload "$W" --seed "$SEED" --seconds "$SECS" \
    --trace "$TRACE" --trace-dir "$TRACES" > "$OUT"; then
    STATUS=1
  fi
  cat "$OUT"
done
exit $STATUS
