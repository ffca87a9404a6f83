//===-- tests/daig_core_test.cpp - DAIG construction & query tests --------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Core DAIG behavior: construction well-formedness, demand-driven query
/// evaluation, demanded unrolling of loops, and from-scratch consistency
/// against the batch interpreter (Theorem 6.1) — on straight-line code,
/// branches, single loops, and nested loops, over interval and constant
/// domains.
///
//===----------------------------------------------------------------------===//

#include "daig/daig.h"

#include "domain/constprop.h"
#include "domain/interval.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

TEST(DaigConstruction, StraightLineIsWellFormed) {
  Function F = mustLowerFn(R"(
    function main() {
      var x = 1;
      var y = x + 2;
      return y;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  ASSERT_TRUE(G.valid());
  EXPECT_EQ(G.checkWellFormed(), "");
  EXPECT_GT(G.cellCount(), 0u);
}

TEST(DaigConstruction, BranchesCreateJoinCells) {
  Function F = mustLowerFn(R"(
    function main(c) {
      var x = 0;
      if (c > 0) { x = 1; } else { x = 2; }
      return x;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  ASSERT_TRUE(G.valid());
  EXPECT_EQ(G.checkWellFormed(), "");
}

// A cell record holds no statement: a statement cell keeps its edge's id
// and the label stamp it read (cfg/cfg.h), so it costs a state cell's size.
TEST(DaigConstruction, CellRecordHoldsNoStatement) {
  EXPECT_LE(sizeof(Daig<IntervalDomain>::Cell), 160u);
}

TEST(DaigQuery, StraightLineConstants) {
  Function F = mustLowerFn(R"(
    function main() {
      var x = 1;
      var y = x + 2;
      return y;
    })",
                           "main");
  Statistics Stats;
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params),
                          &Stats);
  ConstState Exit = G.queryLocation(F.Body.exit());
  ASSERT_FALSE(Exit.Bottom);
  EXPECT_EQ(Exit.get(RetVar), std::optional<int64_t>(3));
  EXPECT_EQ(Stats.Transfers, 3u); // three statements on the exit path
}

TEST(DaigQuery, RepeatedQueryHitsCellReuse) {
  Function F = mustLowerFn(R"(
    function main() {
      var x = 7;
      return x;
    })",
                           "main");
  Statistics Stats;
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params),
                          &Stats);
  (void)G.queryLocation(F.Body.exit());
  uint64_t TransfersAfterFirst = Stats.Transfers;
  (void)G.queryLocation(F.Body.exit());
  EXPECT_EQ(Stats.Transfers, TransfersAfterFirst)
      << "second query must be served entirely from cells (Q-Reuse)";
  EXPECT_GT(Stats.CellReuses, 0u);
}

TEST(DaigQuery, BranchJoinIntervals) {
  Function F = mustLowerFn(R"(
    function main(c) {
      var x = 0;
      if (c > 0) { x = 1; } else { x = 5; }
      return x;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  IntervalState Exit = G.queryLocation(F.Body.exit());
  ASSERT_FALSE(Exit.Bottom);
  EXPECT_EQ(Exit.get(RetVar).Num, Interval::range(1, 5));
}

TEST(DaigQuery, LoopWithWideningConverges) {
  Function F = mustLowerFn(R"(
    function main() {
      var i = 0;
      while (i < 10) {
        i = i + 1;
      }
      return i;
    })",
                           "main");
  Statistics Stats;
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params),
                         &Stats);
  IntervalState Exit = G.queryLocation(F.Body.exit());
  ASSERT_FALSE(Exit.Bottom);
  // Widening (applied every iteration, no narrowing) loses the loop's upper
  // bound; the exit guard refines i to [10, +∞).
  EXPECT_EQ(Exit.get("i").Num, Interval::atLeast(10));
  EXPECT_GT(Stats.Unrollings, 0u) << "the loop must be demanded-unrolled";
  EXPECT_EQ(G.checkWellFormed(), "");
}

TEST(DaigQuery, FromScratchConsistencyStraightAndBranch) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var a = 2;
      var b = a * 3;
      if (n > b) { a = a + 1; } else { b = b - a; }
      return a + b;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  expectFromScratchConsistent<IntervalDomain>(F, G);
}

TEST(DaigQuery, FromScratchConsistencyLoop) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        s = s + i;
        i = i + 1;
      }
      return s;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  expectFromScratchConsistent<IntervalDomain>(F, G);
}

TEST(DaigQuery, FromScratchConsistencyNestedLoops) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      var t = 0;
      while (i < n) {
        var j = 0;
        while (j < i) {
          t = t + 1;
          j = j + 1;
        }
        i = i + 1;
      }
      return t;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  expectFromScratchConsistent<IntervalDomain>(F, G, "nested");
}

TEST(DaigQuery, UnreachableLocationIsBottom) {
  Function F = mustLowerFn(R"(
    function main() {
      return 1;
      return 2;
    })",
                           "main");
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params));
  ConstState Exit = G.queryLocation(F.Body.exit());
  EXPECT_EQ(Exit.get(RetVar), std::optional<int64_t>(1));
}

TEST(DaigQuery, DemandComputesOnlyNeededCells) {
  // Two independent branches; querying a location inside one branch must
  // not force transfers in the other (Section 2.2).
  Function F = mustLowerFn(R"(
    function main(c) {
      var x = 0;
      if (c > 0) {
        x = 1;
        x = x + 1;
        x = x + 1;
      } else {
        x = 5;
        x = x * 2;
        x = x * 2;
      }
      return x;
    })",
                           "main");
  CfgInfo Info = analyzeCfg(F.Body);
  ASSERT_TRUE(Info.valid());
  // Find the location just after `x = 1` (target of the then-branch's first
  // non-assume statement).
  Loc AfterX1 = InvalidLoc;
  for (const auto &[Id, E] : F.Body.edges()) {
    if (E.Label.Kind == StmtKind::Assign && E.Label.Lhs == "x" && E.Label.Rhs &&
        E.Label.Rhs->Kind == ExprKind::IntLit && E.Label.Rhs->IntVal == 1) {
      AfterX1 = E.Dst;
      break;
    }
  }
  ASSERT_NE(AfterX1, InvalidLoc);
  Statistics Stats;
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params),
                          &Stats);
  (void)G.queryLocation(AfterX1);
  // Path to AfterX1: x=0, assume(c>0), x=1 — exactly three transfers.
  EXPECT_EQ(Stats.Transfers, 3u);
}

} // namespace
