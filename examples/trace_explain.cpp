//===-- examples/trace_explain.cpp - Observability walkthrough ------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability walkthrough: trace a demanded analysis, explain a query's
/// demand provenance, and print the run's counters.
///
///  1. Enable structured tracing, run interval queries over a small
///     program, and export both Chrome trace_event JSON (load it in
///     Perfetto / chrome://tracing) and collapsed-stack text (pipe it
///     through flamegraph.pl).
///  2. Ask the DAIG to EXPLAIN a query: Daig::explainQuery records the
///     demand tree — which cells the query traversed and whether each was
///     reused, evaluated fresh, answered by the memo table, or
///     ⊤-substituted by the budget — as text and Graphviz DOT.
///  3. Print every counter family of the run (support/statistics.h) under
///     its bench JSON field names.
///
/// Build & run:  ./build/example_trace_explain
/// The DAI_TRACE=<file> environment variable (honored by every dai-cpp
/// binary, not just this one) writes the same Chrome JSON at process exit.
///
//===----------------------------------------------------------------------===//

#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/interval.h"
#include "support/observe.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

using namespace dai;

int main() {
  const char *Source = R"(
    function main(n) {
      var i = 0;
      var total = 0;
      while (i < n) {
        total = total + i;
        i = i + 1;
      }
      return total;
    }
  )";
  LowerResult LR = frontend(Source);
  if (!LR.ok()) {
    std::fprintf(stderr, "frontend error: %s\n", LR.Error.c_str());
    return 1;
  }
  Function &Main = *LR.Prog.find("main");

  // 1. Trace a demanded analysis. Tracing is off by default (each hook is
  //    one thread_local branch); flip it on around the region of interest.
  setTracingEnabled(true);
  Statistics Stats;
  MemoTable<IntervalDomain> Memo;
  Daig<IntervalDomain> Graph(&Main.Body,
                             IntervalDomain::initialEntry(Main.Params),
                             &Stats, &Memo);
  IntervalState Exit = Graph.queryLocation(Main.Body.exit());
  std::printf("exit state: %s\n", IntervalDomain::toString(Exit).c_str());
  setTracingEnabled(false);

  TraceStats TS = traceStats();
  std::printf("trace: %llu events recorded, %llu dropped\n",
              (unsigned long long)TS.EventsRecorded,
              (unsigned long long)TS.EventsDropped);
  if (TS.EventsRecorded == 0) {
    std::fprintf(stderr, "expected the traced query to record events\n");
    return 1;
  }
  if (!writeChromeTrace("trace_explain.trace.json") ||
      !writeCollapsedStack("trace_explain.folded.txt")) {
    std::fprintf(stderr, "trace export failed\n");
    return 1;
  }
  std::printf("wrote trace_explain.trace.json (chrome://tracing) and "
              "trace_explain.folded.txt (flamegraph.pl)\n\n");

  // 2. Explain a query. The first explain runs against the already-filled
  //    DAIG, so the tree is pure reuse; after an edit, the same explain
  //    shows exactly the slice the edit forced back through evaluation.
  DemandTree Steady = Graph.explainQuery(Main.Body.exit());
  std::printf("== steady-state demand tree (all reuse) ==\n%s\n",
              Steady.text().c_str());
  if (Steady.size() == 0)
    return 1;

  EdgeId InitEdge = InvalidEdgeId;
  for (const auto &[Id, E] : Main.Body.edges())
    if (E.Label.toString() == "i = 0")
      InitEdge = Id;
  Graph.applyStatementEdit(InitEdge, Stmt::mkAssign("i", Expr::mkInt(3)));
  DemandTree AfterEdit = Graph.explainQuery(Main.Body.exit());
  std::printf("== demand tree after editing `i = 0` -> `i = 3` ==\n%s\n",
              AfterEdit.text().c_str());

  std::FILE *Dot = std::fopen("trace_explain.demand.dot", "w");
  if (!Dot)
    return 1;
  std::fputs(AfterEdit.dot().c_str(), Dot);
  std::fclose(Dot);
  std::printf("wrote trace_explain.demand.dot (render with `dot -Tsvg`)\n\n");

  // 3. The run's counters, one family per line, under the bench field
  //    names.
  std::cout << "== counters ==\n" << Stats << '\n';
  ThreadCounters::forEachFamily(
      [](auto M) { std::cout << ThreadCounters::live().*M << '\n'; });
  return 0;
}
