#!/bin/sh
# check_docs.sh — the docs-check lane: fails (exit 1) when the README's
# build/verify/bench instructions drift from what the repo actually builds.
#
# usage: check_docs.sh REPO_ROOT
#
# Checks, all derived from the committed sources rather than a hand-kept
# list so they cannot themselves go stale:
#   1. README.md, docs/architecture.md, docs/benchmarking.md, and
#      docs/observability.md exist.
#   2. The README documents the tier-1 verify flow (cmake -B build /
#      cmake --build build / ctest) — the exact commands CI runs.
#   3. Every bench_*/example_* executable name the docs mention has a
#      corresponding source file under bench/, examples/ or (for the
#      bench_*_test suites) tests/ — those targets are CMake globs over the
#      source trees, so the file IS the target.
#   4. Every `--target NAME` the docs mention is either a globbed
#      executable (rule 3 / tests/NAME.cpp) or a named custom target in
#      CMakeLists.txt.
#   5. Every scripts/*.sh path the docs mention exists.
#   6. Every --domain value the docs promise is accepted by the bench's
#      argument parser.
#   7. Every *.md path named in src/, bench/, tests/, scripts/ or the docs
#      exists, at the repository root or next to the file that names it.
#   8. Every number in the README "Current results" table equals the
#      committed BENCH_fig10.json: each ms cell is its sweep row's wall_ms
#      to one decimal, each counter cell the row's counter exactly.

set -u

ROOT=${1:-.}
README="$ROOT/README.md"
CML="$ROOT/CMakeLists.txt"
BENCH_SRC="$ROOT/bench/fig10_octagon_workload.cpp"
STATUS=0

fail() {
  echo "docs-check: $1" >&2
  STATUS=1
}

[ -r "$README" ] || { echo "docs-check: README.md missing" >&2; exit 1; }
DOCS="$README"
for D in architecture benchmarking observability; do
  if [ -r "$ROOT/docs/$D.md" ]; then
    DOCS="$DOCS $ROOT/docs/$D.md"
  else
    fail "docs/$D.md missing"
  fi
done

# 2. Tier-1 verify flow.
grep -q -- "cmake -B build" "$README" ||
  fail "README lost the 'cmake -B build' configure step"
grep -q -- "cmake --build build" "$README" ||
  fail "README lost the 'cmake --build build' step"
grep -q "ctest" "$README" || fail "README lost the ctest verify step"

# 3. Globbed executables named in the docs must have sources. -w so a
#    mention inside a longer identifier (check_bench_regression) does not
#    count; ctest-registered names (add_test NAME ...) are not executables
#    and resolve through CMakeLists.txt instead.
for T in $(grep -ohEw 'bench_[a-z0-9_]+' $DOCS | sort -u); do
  grep -q "NAME $T" "$CML" && continue
  [ -r "$ROOT/tests/$T.cpp" ] && continue
  [ -r "$ROOT/bench/${T#bench_}.cpp" ] ||
    fail "docs reference $T but bench/${T#bench_}.cpp does not exist"
done
for T in $(grep -ohEw 'example_[a-z0-9_]+' $DOCS | sort -u); do
  [ -r "$ROOT/examples/${T#example_}.cpp" ] ||
    fail "docs reference $T but examples/${T#example_}.cpp does not exist"
done

# 4. Explicit --target names must resolve.
for T in $(grep -ohE -- '--target +[A-Za-z0-9_]+' $DOCS |
           awk '{print $2}' | sort -u); do
  case "$T" in
  bench_*) [ -r "$ROOT/bench/${T#bench_}.cpp" ] ||
    fail "--target $T has no bench source" ;;
  example_*) [ -r "$ROOT/examples/${T#example_}.cpp" ] ||
    fail "--target $T has no example source" ;;
  *_test) [ -r "$ROOT/tests/$T.cpp" ] ||
    fail "--target $T has no test source" ;;
  *) grep -Eq "add_(library|executable|custom_target)\( *$T\b|NAME +$T\b" \
       "$CML" ||
    fail "--target $T is not a target in CMakeLists.txt" ;;
  esac
done

# 5. Referenced scripts must exist.
for S in $(grep -ohE 'scripts/[a-z0-9_]+\.sh' $DOCS | sort -u); do
  [ -r "$ROOT/$S" ] || fail "docs reference $S which does not exist"
done

# 6. The --domain axis the docs promise must match the bench parser.
for V in octagon zone staged dis_interval both; do
  grep -q "\"$V\"" "$BENCH_SRC" ||
    fail "bench no longer accepts --domain $V promised by the docs"
done

# 7. Named Markdown files must exist. A name counts when it starts a word
#    (so shell expansions such as $ROOT/README.md are skipped).
for F in $(grep -rlE '[A-Za-z0-9_]\.md' "$ROOT/src" "$ROOT/bench" "$ROOT/tests" \
             "$ROOT/scripts" $DOCS); do
  for P in $(grep -ohE '(^|[^$A-Za-z0-9_./-])[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b' \
               "$F" | sed -E 's/^[^A-Za-z0-9_]//' | sort -u); do
    [ -r "$ROOT/$P" ] || [ -r "$(dirname "$F")/$P" ] ||
      fail "${F#$ROOT/} names $P, which does not exist"
  done
done

# 8. The README results table quotes the committed fig10 JSON. Its sweep
#    rows are one object per line; columns 3-5 of the table are the
#    octagon/zone/staged wall_ms, columns 6-9 the counters below.
JSON="$ROOT/BENCH_fig10.json"
if [ -r "$JSON" ]; then
  TABLE=$(awk '
    function field(Line, Key,   V) {
      if (!match(Line, "\"" Key "\": [-0-9.]+"))
        return ""
      V = substr(Line, RSTART, RLENGTH)
      sub(/^.*: /, "", V)
      return V
    }
    FNR == NR {
      if ($0 !~ /"phase": "sweep"/ ||
          !match($0, /"domain": "(octagon|zone|staged)"/))
        next
      D = substr($0, RSTART + 11, RLENGTH - 12)
      V = field($0, "vars")
      Want[V, D == "octagon" ? 3 : D == "zone" ? 4 : 5] = \
          sprintf("%.1f", field($0, "wall_ms"))
      if (D == "octagon")
        Want[V, 6] = field($0, "dbm_cells_touched")
      else if (D == "zone")
        Want[V, 7] = field($0, "zone_closure_vertices_visited")
      else {
        Want[V, 8] = field($0, "staged_escalated_transfers")
        Want[V, 9] = field($0, "sum_mismatches")
      }
      next
    }
    /^### Current results/ { In = 1; next }
    In && /^#/ { In = 0 }
    In && /^\| *[0-9]+ *\|/ {
      split($0, Cell, "|")
      V = Cell[2]
      gsub(/ /, "", V)
      ++Rows
      for (I = 3; I <= 9; ++I) {
        Got = Cell[I]
        gsub(/[ ,]/, "", Got)
        if (!((V, I) in Want))
          print "vars " V " column " I - 1 ": no BENCH_fig10.json value"
        else if (Got != Want[V, I])
          print "vars " V " column " I - 1 ": README has " Got \
                ", BENCH_fig10.json has " Want[V, I]
      }
    }
    END { if (!Rows) print "no results table under \"### Current results\"" }
  ' "$JSON" "$README")
  if [ -n "$TABLE" ]; then
    while IFS= read -r Line; do
      fail "README results table: $Line"
    done <<TABLE_EOF
$TABLE
TABLE_EOF
  fi
else
  fail "BENCH_fig10.json missing (the README results table quotes it)"
fi

if [ "$STATUS" -eq 0 ]; then
  echo "docs-check: OK"
fi
exit $STATUS
