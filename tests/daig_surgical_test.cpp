//===-- tests/daig_surgical_test.cpp - Statement insertion tests ----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement insertion (Daig::applyInsertedStatement): 85% of the paper's
/// workload edits are statement insertions, which must touch only the
/// cells around the splice while preserving well-formedness and
/// from-scratch consistency, including insertions inside loop bodies, at
/// latches, at join predecessors, and before loop headers.
///
//===----------------------------------------------------------------------===//

#include "cfg/edits.h"
#include "daig/daig.h"
#include "domain/constprop.h"
#include "support/rng.h"
#include "domain/interval.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

/// Performs the CFG insertion and the DAIG's statement splice.
template <typename D>
bool spliceStmt(Function &F, Daig<D> &G, Loc At, Stmt S) {
  InsertResult R = insertStmtAt(F.Body, At, std::move(S));
  return G.applyInsertedStatement(At, R);
}

Loc destOfStmt(const Cfg &G, const std::string &Text) {
  for (const auto &[Id, E] : G.edges())
    if (E.Label.toString() == Text)
      return E.Dst;
  ADD_FAILURE() << "no edge labelled " << Text;
  return InvalidLoc;
}

TEST(DaigSurgical, InsertIntoStraightLine) {
  Function F = mustLowerFn(R"(
    function main() {
      var x = 1;
      var y = x + 1;
      return y;
    })",
                           "main");
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit());
  Loc At = destOfStmt(F.Body, "x = 1");
  EXPECT_TRUE(spliceStmt(F, G, At, Stmt::mkAssign("x", Expr::mkInt(10))));
  EXPECT_EQ(G.checkWellFormed(), "");
  EXPECT_EQ(G.queryLocation(F.Body.exit()).get(RetVar),
            std::optional<int64_t>(11));
  expectFromScratchConsistent<ConstPropDomain>(F, G, "straight-line splice");
}

TEST(DaigSurgical, InsertPreservesUpstreamValues) {
  Function F = mustLowerFn(R"(
    function main() {
      var a = 1;
      var b = 2;
      var c = 3;
      return c;
    })",
                           "main");
  Statistics Stats;
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params),
                          &Stats);
  (void)G.queryLocation(F.Body.exit());
  uint64_t Before = Stats.Transfers;
  // Insert after `var c = 3` (immediately before return): upstream cells
  // must be untouched; re-query runs exactly two transfers (new statement +
  // the return).
  Loc At = destOfStmt(F.Body, "c = 3");
  EXPECT_TRUE(spliceStmt(F, G, At, Stmt::mkAssign("c", Expr::mkInt(9))));
  EXPECT_EQ(G.queryLocation(F.Body.exit()).get(RetVar),
            std::optional<int64_t>(9));
  EXPECT_EQ(Stats.Transfers - Before, 2u);
}

TEST(DaigSurgical, InsertAtJoinPredecessor) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var x = 0;
      if (n > 0) { x = 1; x = x + 10; } else { x = 2; }
      return x;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit());
  // Insert between `x = 1` and `x = x + 10`: the moved out-edge targets the
  // if-join, exercising the renaming of join-indexed statement cells.
  Loc At = destOfStmt(F.Body, "x = 1");
  EXPECT_TRUE(spliceStmt(
      F, G, At,
      Stmt::mkAssign("x", Expr::mkBinary(BinaryOp::Mul, Expr::mkVar("x"),
                                         Expr::mkInt(2)))));
  EXPECT_EQ(G.checkWellFormed(), "");
  IntervalState Exit = G.queryLocation(F.Body.exit());
  EXPECT_EQ(Exit.get(RetVar).Num, Interval::range(2, 12));
  expectFromScratchConsistent<IntervalDomain>(F, G, "join-pred splice");
}

TEST(DaigSurgical, InsertInsideLoopBodyRollsBack) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        s = s + 2;
        i = i + 1;
      }
      return s;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit());
  EXPECT_GT(G.unrolledLoopCount(), 0u);
  Loc At = destOfStmt(F.Body, "s = s + 2");
  EXPECT_TRUE(spliceStmt(F, G, At, Stmt::mkAssign("s", Expr::mkInt(0))));
  EXPECT_EQ(G.checkWellFormed(), "");
  EXPECT_EQ(G.unrolledLoopCount(), 0u) << "loop must roll back (E-Loop)";
  expectFromScratchConsistent<IntervalDomain>(F, G, "loop-body splice");
}

TEST(DaigSurgical, InsertAtLatchMovesBackEdge) {
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
  // The latch is the destination of `i = i + 1` inside the loop; inserting
  // there re-sources the back edge.
  Loc Latch = destOfStmt(F.Body, "i = i + 1");
  EXPECT_TRUE(spliceStmt(
      F, G, Latch,
      Stmt::mkAssign("i", Expr::mkBinary(BinaryOp::Add, Expr::mkVar("i"),
                                         Expr::mkInt(1)))));
  EXPECT_EQ(G.checkWellFormed(), "");
  expectFromScratchConsistent<IntervalDomain>(F, G, "latch splice");
}

TEST(DaigSurgical, InsertBeforeLoopHeader) {
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
  // The loop header is the destination of `i = 0`; inserting "at" a header
  // splices before the loop (see cfg/edits.h).
  Loc Head = destOfStmt(F.Body, "i = 0");
  EXPECT_TRUE(spliceStmt(F, G, Head, Stmt::mkAssign("i", Expr::mkInt(3))));
  EXPECT_EQ(G.checkWellFormed(), "");
  IntervalState Exit = G.queryLocation(F.Body.exit());
  // i enters the loop as 3; exit guard gives [n≤i] with lower bound 3.
  EXPECT_EQ(Exit.get("i").Num.lo(), 3);
  expectFromScratchConsistent<IntervalDomain>(F, G, "before-header splice");
}

TEST(DaigSurgical, RepeatedSplicesStayConsistent) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var a = 0;
      var b = 1;
      while (a < n) {
        a = a + b;
      }
      if (b > 0) { b = b + a; } else { b = 0; }
      return b;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit());
  Rng R(7);
  for (int Step = 0; Step < 12; ++Step) {
    CfgInfo Info = analyzeCfg(F.Body);
    ASSERT_TRUE(Info.valid());
    std::vector<Loc> Candidates;
    for (Loc L = 0; L < F.Body.numLocs(); ++L)
      if (Info.Reachable[L] && L != F.Body.exit())
        Candidates.push_back(L);
    Loc At = Candidates[R.below(Candidates.size())];
    std::string Var = "v" + std::to_string(R.below(3));
    Stmt S = Stmt::mkAssign(Var, Expr::mkInt(R.range(-5, 5)));
    spliceStmt(F, G, At, S);
    ASSERT_EQ(G.checkWellFormed(), "") << "step " << Step;
    expectFromScratchConsistent<IntervalDomain>(
        F, G, "random splice step " + std::to_string(Step));
  }
}

} // namespace
