//===-- tests/observe_test.cpp - Observability layer tests ----------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer (support/observe.h): the trace ring records
/// only when enabled (and counts drops, never wraps); exports are sorted
/// ts-monotone per tid; and Daig::explainQuery returns the same demand
/// tree for equal DAIG states — with the outcome tags actually tracking
/// Q-Reuse / Q-Match / Q-Miss.
///
//===----------------------------------------------------------------------===//

#include "support/observe.h"

#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/interval.h"
#include "support/budget.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace dai;

namespace {

//===----------------------------------------------------------------------===//
// Trace ring
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledHooksRecordNothing) {
  setTracingEnabled(false);
  resetTrace();
  {
    TraceSpan Sp("obs_test.span", 1, 2);
    traceInstant("obs_test.instant");
  }
  EXPECT_EQ(traceStats().EventsRecorded, 0u);
  EXPECT_EQ(traceStats().EventsDropped, 0u);
  EXPECT_TRUE(collectTrace().empty());
}

TEST(Trace, EnabledSpansAndInstantsAreCollected) {
  setTracingEnabled(true);
  resetTrace();
  {
    TraceSpan Outer("obs_test.outer", 7);
    TraceSpan Inner("obs_test.inner");
    traceInstant("obs_test.instant", 3, 4);
  }
  setTracingEnabled(false);
  TraceStats TS = traceStats();
  EXPECT_EQ(TS.EventsRecorded, 3u);
  EXPECT_EQ(TS.EventsDropped, 0u);

  std::vector<TaggedTraceEvent> Evs = collectTrace();
  ASSERT_EQ(Evs.size(), 3u);
  // Sorted by (tid, ts, depth): outer precedes inner, ts monotone per tid.
  for (size_t I = 1; I < Evs.size(); ++I) {
    if (Evs[I - 1].Tid == Evs[I].Tid) {
      EXPECT_LE(Evs[I - 1].E.TsNs, Evs[I].E.TsNs);
    }
  }
  bool SawOuter = false, SawInner = false, SawInstant = false;
  for (const TaggedTraceEvent &T : Evs) {
    std::string Nm = T.E.Nm;
    if (Nm == "obs_test.outer") {
      SawOuter = true;
      EXPECT_EQ(T.E.A0, 7u);
      EXPECT_EQ(T.E.Ph, 0u);
      EXPECT_EQ(T.E.Depth, 0u);
    } else if (Nm == "obs_test.inner") {
      SawInner = true;
      EXPECT_EQ(T.E.Depth, 1u);
    } else if (Nm == "obs_test.instant") {
      SawInstant = true;
      EXPECT_EQ(T.E.Ph, 1u);
      EXPECT_EQ(T.E.A0, 3u);
      EXPECT_EQ(T.E.DurNs, 0u);
    }
  }
  EXPECT_TRUE(SawOuter && SawInner && SawInstant);
  resetTrace();
}

TEST(Trace, FullRingDropsAndCounts) {
  setTracingEnabled(true);
  resetTrace();
  for (uint32_t I = 0; I < TraceRing::kCapacity + 100; ++I)
    traceInstant("obs_test.flood");
  setTracingEnabled(false);
  TraceStats TS = traceStats();
  EXPECT_EQ(TS.EventsRecorded, uint64_t(TraceRing::kCapacity));
  EXPECT_GE(TS.EventsDropped, 100u); // never wraps, always counts
  resetTrace();
}

TEST(Trace, InstrumentedAnalysisEmitsDaigEvents) {
  const char *Source = R"(
    function main(n) {
      var i = 0;
      while (i < n) { i = i + 1; }
      return i;
    }
  )";
  LowerResult LR = frontend(Source);
  ASSERT_TRUE(LR.ok()) << LR.Error;
  Function &Main = *LR.Prog.find("main");

  setTracingEnabled(true);
  resetTrace();
  Statistics Stats;
  MemoTable<IntervalDomain> Memo;
  Daig<IntervalDomain> G(&Main.Body,
                         IntervalDomain::initialEntry(Main.Params), &Stats,
                         &Memo);
  (void)G.queryLocation(Main.Body.exit());
  setTracingEnabled(false);

  bool SawCellEval = false, SawFixIter = false, SawMemoMiss = false;
  for (const TaggedTraceEvent &T : collectTrace()) {
    std::string Nm = T.E.Nm;
    SawCellEval |= Nm == "daig.cell_eval";
    SawFixIter |= Nm == "daig.fix_iter";
    SawMemoMiss |= Nm == "memo.miss";
  }
  EXPECT_TRUE(SawCellEval);
  EXPECT_TRUE(SawFixIter);
  EXPECT_TRUE(SawMemoMiss);
  resetTrace();
}

//===----------------------------------------------------------------------===//
// Demand provenance (explainQuery)
//===----------------------------------------------------------------------===//

struct Built {
  LowerResult LR;
  Statistics Stats;
  MemoTable<IntervalDomain> Memo;
  std::unique_ptr<Daig<IntervalDomain>> G;
  Loc Exit = 0;
};

void build(Built &B) {
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
  B.LR = frontend(Source);
  ASSERT_TRUE(B.LR.ok()) << B.LR.Error;
  Function &Main = *B.LR.Prog.find("main");
  B.G = std::make_unique<Daig<IntervalDomain>>(
      &Main.Body, IntervalDomain::initialEntry(Main.Params), &B.Stats,
      &B.Memo);
  B.Exit = Main.Body.exit();
}

TEST(ExplainQuery, DeterministicAcrossFreshDaigs) {
  Built A, B;
  build(A);
  build(B);
  if (HasFatalFailure())
    return;
  DemandTree TA = A.G->explainQuery(A.Exit);
  DemandTree TB = B.G->explainQuery(B.Exit);
  EXPECT_GT(TA.size(), 0u);
  EXPECT_EQ(TA.text(), TB.text()); // bit-identical for equal DAIG states
  EXPECT_EQ(TA.dot(), TB.dot());
}

TEST(ExplainQuery, FirstEvaluatesThenSteadyStateReuses) {
  Built B;
  build(B);
  if (HasFatalFailure())
    return;
  DemandTree Cold = B.G->explainQuery(B.Exit);
  EXPECT_NE(Cold.text().find("[evaluated]"), std::string::npos)
      << Cold.text();

  // The explain query was a REAL query: its values are stored, so the
  // second explain is pure Q-Reuse — and fits in one root node's subtree.
  DemandTree Warm = B.G->explainQuery(B.Exit);
  ASSERT_GT(Warm.size(), 0u);
  for (const DemandTree::Node &N : Warm.Nodes) {
    EXPECT_TRUE(N.O == DemandOutcome::Reused) << demandOutcomeName(N.O);
    EXPECT_TRUE(N.Children.empty());
  }
  EXPECT_NE(Warm.text().find("[reused]"), std::string::npos);
}

TEST(ExplainQuery, MemoHitsAreTaggedAfterAnEdit) {
  Built B;
  build(B);
  if (HasFatalFailure())
    return;
  (void)B.G->queryLocation(B.Exit);

  // An identity-preserving round trip: edit a statement and edit it back.
  // The second edit dirties the slice again, but every recomputation is
  // answered by the memo table (Q-Match) — and explainQuery shows it.
  Function &Main = *B.LR.Prog.find("main");
  EdgeId InitEdge = InvalidEdgeId;
  Stmt Orig = Stmt::mkSkip();
  for (const auto &[Id, E] : Main.Body.edges())
    if (E.Label.toString() == "i = 0") {
      InitEdge = Id;
      Orig = E.Label;
    }
  ASSERT_NE(InitEdge, InvalidEdgeId);
  B.G->applyStatementEdit(InitEdge, Stmt::mkAssign("i", Expr::mkInt(5)));
  (void)B.G->queryLocation(B.Exit);
  B.G->applyStatementEdit(InitEdge, Orig);

  DemandTree T = B.G->explainQuery(B.Exit);
  EXPECT_NE(T.text().find("[memo-hit]"), std::string::npos) << T.text();
}

TEST(ExplainQuery, TopBudgetSubstitutionIsTagged) {
  Built B;
  build(B);
  if (HasFatalFailure())
    return;
  // A step budget of 1: the second demand-miss checkpoint latches hard
  // exhaustion, and every cell evaluation after it resolves to ⊤
  // (degradeToTop) — which the demand tree reports as the budget's doing.
  AnalysisBudget Budget;
  Budget.MaxSteps = 1;
  BudgetScope Scope(Budget);
  DemandTree T = B.G->explainQuery(B.Exit);
  EXPECT_NE(T.text().find("[top-budget]"), std::string::npos) << T.text();
}

} // namespace
