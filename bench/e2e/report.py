#!/usr/bin/env python3
"""Summaries for the end-to-end benchmark's helper scripts.

    report.py check-run BENCHMARK.json TRACE OUTPUT
        OUTPUT is one run's stdout. Checks that its last line is the result
        object with every metric BENCHMARK.json declares for TRACE (0: the
        end_to_end list, 1: the per_layer list) and that the run was correct.
        With TRACE 1 it also requires trace.coverage_pct >= 95.

    report.py stability BENCHMARK.json RESULTS [--against EARLIER] [--write]
        RESULTS holds lines "workload<TAB>seed<TAB>result-json". Prints each
        end-to-end metric's median, quartile spread (IQR / median, quartiles
        as statistics.quantiles(n=4) gives them) and max/min per workload,
        and the bound that spread supports: three times the widest spread,
        rounded up to 0.05, at least 0.05 and at most 0.25; setup_s always
        gets the largest bound. --against EARLIER also prints how far each
        median moved from the median of an earlier RESULTS file, in the
        metric's worse direction. --write stores the supported bounds in
        BENCHMARK.json. Exits 1 when a run was incorrect, a spread (setup_s
        excepted) exceeds its declared bound, or a median got worse than the
        earlier one by more than the bound.

    report.py ab BENCHMARK.json RESULTS
        RESULTS holds lines "side<TAB>workload<TAB>pair<TAB>result-json",
        side A or B. Per workload and end-to-end metric prints each side's
        median and quartiles, B's win rate over the pairs (ties count for
        neither side), and a verdict: "B better" when there are at least 10
        pairs, B wins at least 9 in 10 of them and the medians differ by
        more than A's quartile spread,
        "B worse" when B's median is worse than A's by more than the bound,
        else "no change" (or "unresolved" when A's own spread exceeds the
        bound).
"""

import json
import math
import statistics
import sys
from collections import defaultdict


def load_bench(path):
    with open(path) as f:
        return json.load(f)


def result_of(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_run(bench_path, trace, output_path):
    bench = load_bench(bench_path)
    with open(output_path) as f:
        res = result_of(f.read())
    want = bench["per_layer" if trace == "1" else "end_to_end"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(res))
    if res.get("correct") is not True or res.get("failed") != 0:
        problems.append("run not correct (failed=%s)" % res.get("failed"))
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append("attempted is %r" % res.get("attempted"))
    metrics = res.get("metrics", {})
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("metric %s value %r"
                            % (m["name"], got.get("value")))
    extra = set(metrics) - {m["name"] for m in want}
    if extra:
        problems.append("undeclared metrics %s" % sorted(extra))
    if trace == "1" and "trace.coverage_pct" in metrics:
        cov = metrics["trace.coverage_pct"]["value"]
        if cov < 95:
            problems.append("layer spans cover %.2f%% of op time (< 95%%)"
                            % cov)
    for p in problems:
        print("FAIL [check-run %s]: %s" % (output_path, p), file=sys.stderr)
    return 1 if problems else 0


def read_rows(path, fields):
    """Rows of tab-separated keys ending in a result object; a run that
    printed no result object reads as an incorrect run with no metrics."""
    rows = []
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != fields:
                continue
            try:
                res = json.loads(parts[-1])
            except ValueError:
                res = {"correct": False, "metrics": {}}
            rows.append(parts[:-1] + [res])
    return rows


def metric_values(bench, results_path):
    """workload -> metric -> values, and the number of incorrect runs."""
    by = defaultdict(lambda: defaultdict(list))
    failures = 0
    for workload, _seed, res in read_rows(results_path, 3):
        if not res.get("correct"):
            failures += 1
        for m in bench["end_to_end"]:
            v = res["metrics"].get(m["name"], {}).get("value")
            if v is not None:
                by[workload][m["name"]].append(v)
    return by, failures


def stability(bench_path, results_path, earlier_path, write):
    bench = load_bench(bench_path)
    e2e = bench["end_to_end"]
    by, failures = metric_values(bench, results_path)
    before = metric_values(bench, earlier_path)[0] if earlier_path else {}
    worst = defaultdict(float)
    status = 0
    print("%-20s %-12s %4s %14s %8s %8s %7s %9s" %
          ("workload", "metric", "n", "median", "iqr/med", "max/min",
           "bound", "vs earlier"))
    for workload in sorted(by):
        for m in e2e:
            vals = by[workload][m["name"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            maxmin = max(vals) / min(vals) if min(vals) > 0 else float("inf")
            worst[m["name"]] = max(worst[m["name"]], spread)
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "  OVER BOUND"
                status = 1
            elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  over bound/3"
            drift = ""
            old = before.get(workload, {}).get(m["name"])
            if old:
                old_med = statistics.median(old)
                worse = (med - old_med) / old_med
                if m["better"] == "higher":
                    worse = -worse
                drift = "%+8.1f%%" % (100 * worse)
                if worse > m["bound"]:
                    flag += "  WORSE THAN EARLIER"
                    status = 1
            print("%-20s %-12s %4d %14.6g %8.4f %8.4f %7.2f %9s%s" %
                  (workload, m["name"], len(vals), med, spread, maxmin,
                   m["bound"], drift, flag))
    print()
    largest = 0.25
    for m in e2e:
        if m["name"] == "setup_s":
            suggested = largest
        else:
            suggested = min(largest, max(0.05, math.ceil(
                3 * worst[m["name"]] * 20 - 1e-9) / 20))
        print("bound %-12s widest spread %.4f -> %.2f (declared %.2f)" %
              (m["name"], worst[m["name"]], suggested, m["bound"]))
        if write:
            m["bound"] = suggested
    if write:
        with open(bench_path, "w") as f:
            json.dump(bench, f, indent=2)
            f.write("\n")
        print("wrote bounds to %s" % bench_path)
    if failures:
        print("FAIL: %d runs were not correct" % failures, file=sys.stderr)
        status = 1
    return status


def ab(bench_path, results_path):
    bench = load_bench(bench_path)
    by = defaultdict(lambda: defaultdict(dict))
    for side, workload, pair, res in read_rows(results_path, 4):
        for name, m in res["metrics"].items():
            by[(workload, name)][pair][side] = m["value"]
    print("%-20s %-12s %12s %25s %12s %25s %6s  %s" %
          ("workload", "metric", "A median", "A q1..q3", "B median",
           "B q1..q3", "B wins", "verdict"))
    for workload in sorted({w for w, _ in by}):
        for m in bench["end_to_end"]:
            pairs = by.get((workload, m["name"]))
            if not pairs:
                continue
            full = [p for p in pairs.values() if "A" in p and "B" in p]
            a = [p["A"] for p in full]
            b = [p["B"] for p in full]
            if not full:
                continue
            lower = m["better"] == "lower"
            wins = sum(1 for p in full
                       if (p["B"] < p["A"] if lower else p["B"] > p["A"]))
            aq1, amed, aq3 = quartiles(a)
            bq1, bmed, bq3 = quartiles(b)
            worse = (bmed - amed) / amed if lower else (amed - bmed) / amed
            if len(full) >= 10 and wins >= 0.9 * len(full) and \
                    abs(bmed - amed) > (aq3 - aq1):
                verdict = "B better"
            elif worse > m["bound"]:
                verdict = "B worse"
            elif (aq3 - aq1) / amed > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "no change"
            print("%-20s %-12s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g"
                  " %3d/%-2d  %s (%+.1f%%)" %
                  (workload, m["name"], amed, aq1, aq3, bmed, bq1, bq3, wins,
                   len(full), verdict, 100 * (bmed - amed) / amed))
    return 0


def main(argv):
    if len(argv) >= 4 and argv[0] == "check-run":
        return check_run(argv[1], argv[2], argv[3])
    if len(argv) >= 3 and argv[0] == "stability":
        rest = argv[3:]
        earlier = None
        if "--against" in rest:
            i = rest.index("--against")
            if i + 1 >= len(rest):
                print(__doc__, file=sys.stderr)
                return 2
            earlier = rest[i + 1]
        return stability(argv[1], argv[2], earlier, "--write" in rest)
    if len(argv) == 3 and argv[0] == "ab":
        return ab(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
