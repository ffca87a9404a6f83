//===-- tests/daig_edit_test.cpp - Incremental edit semantics tests -------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edit semantics of Fig. 9: in-place statement replacement dirties
/// forward (E-Commit/E-Propagate), dirtying a loop rolls its fix edge back
/// (E-Loop), structural insertions preserve unaffected values (the Fig. 4b
/// scenario), and after every edit, query results remain from-scratch
/// consistent with batch analysis of the edited program.
///
//===----------------------------------------------------------------------===//

#include "cfg/edits.h"
#include "daig/daig.h"
#include "domain/constprop.h"
#include "domain/interval.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

/// Finds the unique edge whose statement prints as \p Text.
EdgeId edgeWithStmt(const Cfg &G, const std::string &Text) {
  EdgeId Found = InvalidEdgeId;
  for (const auto &[Id, E] : G.edges()) {
    if (E.Label.toString() == Text) {
      EXPECT_EQ(Found, InvalidEdgeId) << "ambiguous statement: " << Text;
      Found = Id;
    }
  }
  EXPECT_NE(Found, InvalidEdgeId) << "no edge labelled: " << Text;
  return Found;
}

TEST(DaigEdit, StatementReplacementChangesResult) {
  Function F = mustLowerFn(R"(
    function main() {
      var x = 1;
      var y = x + 2;
      return y;
    })",
                           "main");
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params));
  EXPECT_EQ(G.queryLocation(F.Body.exit()).get(RetVar),
            std::optional<int64_t>(3));

  EdgeId Id = edgeWithStmt(F.Body, "x = 1");
  ASSERT_TRUE(G.applyStatementEdit(Id, Stmt::mkAssign("x", Expr::mkInt(40))));
  EXPECT_EQ(G.queryLocation(F.Body.exit()).get(RetVar),
            std::optional<int64_t>(42));
  expectFromScratchConsistent<ConstPropDomain>(F, G, "after replacement");
}

TEST(DaigEdit, DirtyingIsMinimal) {
  // Editing the else-branch must not dirty then-branch cells.
  Function F = mustLowerFn(R"(
    function main(c) {
      var x = 0;
      if (c > 0) { x = 1; } else { x = 2; }
      return x;
    })",
                           "main");
  Statistics Stats;
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params),
                          &Stats);
  (void)G.queryLocation(F.Body.exit());
  uint64_t Transfers = Stats.Transfers, Joins = Stats.Joins;

  EdgeId Id = edgeWithStmt(F.Body, "x = 2");
  ASSERT_TRUE(G.applyStatementEdit(Id, Stmt::mkAssign("x", Expr::mkInt(9))));
  (void)G.queryLocation(F.Body.exit());
  // Exactly the Fig. 4b shape: the edited statement's transfer, the join at
  // the merge point, and the downstream `__ret = x` transfer — everything
  // else is reused from cells.
  EXPECT_EQ(Stats.Transfers - Transfers, 2u);
  EXPECT_EQ(Stats.Joins - Joins, 1u);
  expectFromScratchConsistent<ConstPropDomain>(F, G, "after branch edit");
}

TEST(DaigEdit, EditInsideLoopRollsBackFix) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      while (i < n) {
        i = i + 1;
      }
      return i;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit());
  EXPECT_GT(G.unrolledLoopCount(), 0u);

  EdgeId Id = edgeWithStmt(F.Body, "i = i + 1");
  ASSERT_TRUE(G.applyStatementEdit(Id, Stmt::mkAssign(
                                           "i", Expr::mkBinary(
                                                    BinaryOp::Add,
                                                    Expr::mkVar("i"),
                                                    Expr::mkInt(2)))));
  // E-Loop: the loop must have been rolled back to its initial iterates.
  EXPECT_EQ(G.unrolledLoopCount(), 0u);
  EXPECT_EQ(G.checkWellFormed(), "");
  expectFromScratchConsistent<IntervalDomain>(F, G, "after loop-body edit");
}

TEST(DaigEdit, EditBeforeLoopPreservesNothingDownstream) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      while (i < n) {
        i = i + 1;
      }
      return i;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit());
  EdgeId Id = edgeWithStmt(F.Body, "i = 0");
  ASSERT_TRUE(G.applyStatementEdit(Id, Stmt::mkAssign("i", Expr::mkInt(5))));
  expectFromScratchConsistent<IntervalDomain>(F, G, "after pre-loop edit");
}

TEST(DaigEdit, EditAfterLoopPreservesFixpoint) {
  // The Fig. 4b scenario: editing below the loop must not roll it back.
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      while (i < n) {
        i = i + 1;
      }
      var z = 1;
      return z;
    })",
                           "main");
  Statistics Stats;
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params),
                         &Stats);
  (void)G.queryLocation(F.Body.exit());
  uint64_t WidensBefore = Stats.Widens;
  uint64_t UnrollsBefore = Stats.Unrollings;
  EXPECT_GT(G.unrolledLoopCount(), 0u);

  EdgeId Id = edgeWithStmt(F.Body, "z = 1");
  ASSERT_TRUE(G.applyStatementEdit(Id, Stmt::mkAssign("z", Expr::mkInt(7))));
  EXPECT_GT(G.unrolledLoopCount(), 0u) << "loop must stay unrolled";
  (void)G.queryLocation(F.Body.exit());
  EXPECT_EQ(Stats.Widens, WidensBefore) << "fixpoint must be fully reused";
  EXPECT_EQ(Stats.Unrollings, UnrollsBefore);
  expectFromScratchConsistent<IntervalDomain>(F, G, "after post-loop edit");
}

TEST(DaigEdit, InsertStatementPreservesUnaffectedValues) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      while (i < n) {
        i = i + 1;
      }
      var z = 1;
      return z;
    })",
                           "main");
  Statistics Stats;
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params),
                         &Stats);
  (void)G.queryLocation(F.Body.exit());
  uint64_t WidensBefore = Stats.Widens;

  // Insert `print(z)`-ish statement after the loop (at the source of z=1).
  const CfgEdge *ZEdge = F.Body.findEdge(edgeWithStmt(F.Body, "z = 1"));
  insertStmtAt(F.Body, ZEdge->Src, Stmt::mkPrint(Expr::mkVar("i")));
  G.rebuild();
  EXPECT_EQ(G.checkWellFormed(), "");
  EXPECT_GT(G.unrolledLoopCount(), 0u)
      << "structural edit outside the loop must keep its unrollings";
  (void)G.queryLocation(F.Body.exit());
  EXPECT_EQ(Stats.Widens, WidensBefore)
      << "the loop fixpoint must not be recomputed (Fig. 4b)";
  expectFromScratchConsistent<IntervalDomain>(F, G, "after insertion");
}

TEST(DaigEdit, InsertWhileCreatesAnalyzableLoop) {
  Function F = mustLowerFn(R"(
    function main() {
      var a = 3;
      return a;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit());

  const CfgEdge *AEdge = F.Body.findEdge(edgeWithStmt(F.Body, "a = 3"));
  insertWhileAt(F.Body, AEdge->Dst,
                Expr::mkBinary(BinaryOp::Lt, Expr::mkVar("a"), Expr::mkInt(9)),
                Stmt::mkAssign("a", Expr::mkBinary(BinaryOp::Add,
                                                   Expr::mkVar("a"),
                                                   Expr::mkInt(1))));
  G.rebuild();
  EXPECT_EQ(G.checkWellFormed(), "");
  IntervalState Exit = G.queryLocation(F.Body.exit());
  EXPECT_EQ(Exit.get("a").Num, Interval::atLeast(9));
  expectFromScratchConsistent<IntervalDomain>(F, G, "after while insertion");
}

TEST(DaigEdit, InsertIfInsideLoopBody) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        i = i + 1;
      }
      return s;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit());

  // Insert an if-then-else inside the loop body (after `i = i + 1`).
  const CfgEdge *Inc = F.Body.findEdge(edgeWithStmt(F.Body, "i = i + 1"));
  insertIfAt(F.Body, Inc->Dst,
             Expr::mkBinary(BinaryOp::Gt, Expr::mkVar("i"), Expr::mkInt(2)),
             Stmt::mkAssign("s", Expr::mkInt(1)),
             Stmt::mkAssign("s", Expr::mkInt(2)));
  G.rebuild();
  EXPECT_EQ(G.checkWellFormed(), "");
  expectFromScratchConsistent<IntervalDomain>(F, G, "after if-in-loop");
}

TEST(DaigEdit, RandomizedEditSequenceStaysConsistent) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var a = 1;
      var b = 2;
      while (a < n) {
        a = a + b;
      }
      if (b > a) { b = b - 1; } else { a = a - 1; }
      return a + b;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  expectFromScratchConsistent<IntervalDomain>(F, G, "initial");

  // A fixed mixed sequence of edits, checking consistency after each.
  struct EditStep {
    const char *Before;
    Stmt After;
  };
  std::vector<EditStep> Steps = {
      {"a = 1", Stmt::mkAssign("a", Expr::mkInt(0))},
      {"a = a + b", Stmt::mkAssign("a", Expr::mkBinary(BinaryOp::Add,
                                                       Expr::mkVar("a"),
                                                       Expr::mkInt(3)))},
      {"b = 2", Stmt::mkAssign("b", Expr::mkInt(10))},
      {"b = b - 1", Stmt::mkSkip()},
  };
  int StepIdx = 0;
  for (auto &Step : Steps) {
    EdgeId Id = edgeWithStmt(F.Body, Step.Before);
    ASSERT_TRUE(G.applyStatementEdit(Id, Step.After));
    expectFromScratchConsistent<IntervalDomain>(
        F, G, "step " + std::to_string(StepIdx++));
  }
}

} // namespace
