//===-- tests/interproc_test.cpp - Interprocedural engine tests -----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demanded interprocedural engine (Section 7.1): callee summaries on
/// demand, k-call-string context sensitivity (precision ordering k=2 ≥ k=1 ≫
/// k=0 as in the paper's Section 7.2 study), cross-DAIG invalidation on
/// edits, and recursion rejection.
///
//===----------------------------------------------------------------------===//

#include "interproc/engine.h"

#include "analysis/checker.h"
#include "cfg/edits.h"
#include "domain/constprop.h"
#include "domain/interval.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

TEST(CallGraph, DetectsDirectRecursion) {
  Program P = mustLower(R"(
    function f(n) { var x = f(n); return x; }
    function main() { var y = f(1); return y; }
  )");
  CallGraph CG = buildCallGraph(P);
  EXPECT_FALSE(CG.valid());
  EXPECT_NE(CG.Error.find("recursive"), std::string::npos);
}

TEST(CallGraph, DetectsMutualRecursion) {
  Program P = mustLower(R"(
    function f(n) { var x = g(n); return x; }
    function g(n) { var x = f(n); return x; }
    function main() { var y = f(1); return y; }
  )");
  EXPECT_FALSE(buildCallGraph(P).valid());
}

TEST(CallGraph, DetectsUndefinedCallee) {
  Program P = mustLower(R"(
    function main() { var y = missing(1); return y; }
  )");
  CallGraph CG = buildCallGraph(P);
  EXPECT_FALSE(CG.valid());
  EXPECT_NE(CG.Error.find("undefined"), std::string::npos);
}

TEST(Interproc, SimpleSummaryFlowsBack) {
  Program P = mustLower(R"(
    function double(x) { return x + x; }
    function main() {
      var a = double(21);
      return a;
    }
  )");
  InterprocEngine<ConstPropDomain> E(std::move(P), "main", 1);
  ASSERT_TRUE(E.valid()) << E.error();
  ConstState Exit = E.queryMain(E.cfgOf("main")->exit());
  EXPECT_EQ(Exit.get(RetVar), std::optional<int64_t>(42));
}

TEST(Interproc, NestedCallsThreeDeep) {
  Program P = mustLower(R"(
    function inc(x) { return x + 1; }
    function inc2(x) { var a = inc(x); var b = inc(a); return b; }
    function main() { var r = inc2(40); return r; }
  )");
  InterprocEngine<ConstPropDomain> E(std::move(P), "main", 2);
  ASSERT_TRUE(E.valid()) << E.error();
  ConstState Exit = E.queryMain(E.cfgOf("main")->exit());
  EXPECT_EQ(Exit.get(RetVar), std::optional<int64_t>(42));
}

TEST(Interproc, ContextInsensitivityJoinsCallSites) {
  const char *Src = R"(
    function id(x) { return x; }
    function main() {
      var a = id(1);
      var b = id(2);
      return a;
    }
  )";
  {
    InterprocEngine<ConstPropDomain> E(mustLower(Src), "main", 0);
    ASSERT_TRUE(E.valid());
    ConstState Exit = E.queryMain(E.cfgOf("main")->exit());
    // k=0 merges both call sites: id's entry is x ∈ {1} ⊔ {2} = ⊤.
    EXPECT_EQ(Exit.get(RetVar), std::nullopt);
  }
  {
    InterprocEngine<ConstPropDomain> E(mustLower(Src), "main", 1);
    ASSERT_TRUE(E.valid());
    ConstState Exit = E.queryMain(E.cfgOf("main")->exit());
    EXPECT_EQ(Exit.get(RetVar), std::optional<int64_t>(1));
  }
}

TEST(Interproc, TwoCallStringsDisambiguateWrappers) {
  // Distinguishing h's value requires the *two* most recent call sites.
  const char *Src = R"(
    function h(x) { return x; }
    function wrap1(x) { var r = h(x); return r; }
    function main() {
      var a = wrap1(10);
      var b = wrap1(20);
      return a + b;
    }
  )";
  {
    InterprocEngine<ConstPropDomain> E(mustLower(Src), "main", 1);
    ASSERT_TRUE(E.valid());
    // k=1: h's context is only [wrap1's call], shared by both outer calls.
    ConstState Exit = E.queryMain(E.cfgOf("main")->exit());
    EXPECT_EQ(Exit.get(RetVar), std::nullopt);
  }
  {
    InterprocEngine<ConstPropDomain> E(mustLower(Src), "main", 2);
    ASSERT_TRUE(E.valid());
    ConstState Exit = E.queryMain(E.cfgOf("main")->exit());
    EXPECT_EQ(Exit.get(RetVar), std::optional<int64_t>(30));
  }
}

TEST(Interproc, UncalledFunctionSummaryIsBottom) {
  Program P = mustLower(R"(
    function unused(x) { return x; }
    function main() { return 1; }
  )");
  InterprocEngine<ConstPropDomain> E(std::move(P), "main", 1);
  ASSERT_TRUE(E.valid());
  (void)E.queryMain(E.cfgOf("main")->exit());
  using Key = InterprocEngine<ConstPropDomain>::InstanceKey;
  ConstState S = E.querySummary(Key{"unused", Context{}});
  EXPECT_TRUE(S.Bottom);
}

TEST(Interproc, EditInCalleeInvalidatesCaller) {
  Program P = mustLower(R"(
    function f(x) { var y = x + 1; return y; }
    function main() { var r = f(10); return r; }
  )");
  InterprocEngine<ConstPropDomain> E(std::move(P), "main", 1);
  ASSERT_TRUE(E.valid());
  EXPECT_EQ(E.queryMain(E.cfgOf("main")->exit()).get(RetVar),
            std::optional<int64_t>(11));

  // Change f's body: y = x + 5.
  EdgeId Target = InvalidEdgeId;
  for (const auto &[Id, Edge] : E.cfgOf("f")->edges())
    if (Edge.Label.toString() == "y = x + 1")
      Target = Id;
  ASSERT_NE(Target, InvalidEdgeId);
  ASSERT_TRUE(E.applyStatementEdit(
      "f", Target,
      Stmt::mkAssign("y", Expr::mkBinary(BinaryOp::Add, Expr::mkVar("x"),
                                         Expr::mkInt(5)))));
  EXPECT_EQ(E.queryMain(E.cfgOf("main")->exit()).get(RetVar),
            std::optional<int64_t>(15));
}

TEST(Interproc, EditInCallerReseedsCallee) {
  Program P = mustLower(R"(
    function f(x) { return x; }
    function main() { var r = f(10); return r; }
  )");
  InterprocEngine<ConstPropDomain> E(std::move(P), "main", 1);
  ASSERT_TRUE(E.valid());
  EXPECT_EQ(E.queryMain(E.cfgOf("main")->exit()).get(RetVar),
            std::optional<int64_t>(10));

  EdgeId Target = InvalidEdgeId;
  for (const auto &[Id, Edge] : E.cfgOf("main")->edges())
    if (Edge.Label.Kind == StmtKind::Call)
      Target = Id;
  ASSERT_NE(Target, InvalidEdgeId);
  ASSERT_TRUE(E.applyStatementEdit(
      "main", Target, Stmt::mkCall("r", "f", {Expr::mkInt(99)})));
  EXPECT_EQ(E.queryMain(E.cfgOf("main")->exit()).get(RetVar),
            std::optional<int64_t>(99));
}

TEST(Interproc, IntervalArgumentBindingKeepsArrayLengths) {
  Program P = mustLower(R"(
    function readAt(a, i) {
      var v = 0;
      if (i >= 0) {
        if (i < a.length) {
          v = a[i];
        }
      }
      return v;
    }
    function main() {
      var arr = [1, 2, 3];
      var x = readAt(arr, 1);
      return x;
    }
  )");
  InterprocEngine<IntervalDomain> E(std::move(P), "main", 1);
  ASSERT_TRUE(E.valid());
  (void)E.queryMain(E.cfgOf("main")->exit());

  // Inside readAt's context, the guarded access must be provably in bounds.
  std::vector<Obligation> Obs = collectObligations(
      *E.cfgOf("readAt"), checkMask(CheckKind::ArrayBounds));
  ASSERT_EQ(Obs.size(), 1u);
  unsigned Instances = 0;
  SymbolId ReadAt = internSymbol("readAt");
  E.forEachInstance([&](const auto &Key, Daig<IntervalDomain> &G) {
    if (Key.Fn != ReadAt)
      return;
    ++Instances;
    EXPECT_EQ(evaluateObligation<IntervalDomain>(
                  Obs[0], G.queryLocation(Obs[0].At), /*DegradedPre=*/false),
              Verdict::Safe);
  });
  EXPECT_EQ(Instances, 1u);
}

TEST(Interproc, SummariesAreReusedAcrossQueries) {
  Program P = mustLower(R"(
    function work(x) {
      var i = 0;
      while (i < x) { i = i + 1; }
      return i;
    }
    function main() {
      var a = work(100);
      var b = work(100);
      return a + b;
    }
  )");
  InterprocEngine<IntervalDomain> E(std::move(P), "main", 0);
  ASSERT_TRUE(E.valid());
  (void)E.queryMain(E.cfgOf("main")->exit());
  // With k=0 both call sites share one instance; the second call site must
  // reuse the converged summary rather than re-unrolling the loop.
  EXPECT_EQ(E.instanceCount(), 2u); // main + work
}

TEST(Interproc, StructuralEditInCalleeInvalidatesCaller) {
  // An if spliced in front of h's exit edge re-sources h's exit cell. The
  // reconcile must empty that cell through the dirtying rules, so the
  // engine invalidates main's stale summary of h.
  InterprocEngine<IntervalDomain> E(mustLower(R"(
    function h(x) { var r = x; return r; }
    function main() { var a = h(1); return a; }
  )"),
                                    "main", 0);
  ASSERT_TRUE(E.valid()) << E.error();
  Loc MainExit = E.cfgOf("main")->exit();
  EXPECT_EQ(E.queryMain(MainExit).get("a").Num, Interval::constant(1));

  Cfg &H = E.program().find("h")->Body;
  Loc BeforeExit = InvalidLoc;
  for (const auto &[Id, Edge] : H.edges())
    if (Edge.Dst == H.exit())
      BeforeExit = Edge.Src;
  ASSERT_NE(BeforeExit, InvalidLoc);
  insertIfAt(H, BeforeExit,
             Expr::mkBinary(BinaryOp::Lt, Expr::mkVar("x"), Expr::mkInt(100)),
             Stmt::mkAssign("r", Expr::mkInt(7)),
             Stmt::mkAssign("r", Expr::mkInt(7)));
  E.applyStructuralEdit("h");
  EXPECT_EQ(E.queryMain(MainExit).get("a").Num, Interval::constant(7));

  InterprocEngine<IntervalDomain> Fresh(E.program(), "main", 0);
  EXPECT_TRUE(IntervalDomain::equal(E.queryMain(MainExit),
                                    Fresh.queryMain(MainExit)));
  EXPECT_EQ(E.auditInvariants(), "");
}

} // namespace
