//===-- tests/daig_reconcile_test.cpp - Region rebuild vs full rebuild ----===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Daig::rebuild() reconciles the DAIG with the current CFG by rebuilding
/// only the region a structural edit touched. The full rebuild is the same
/// reconcile with every location in the region. These tests drive twin
/// DAIGs (and twin engines at k=1) through identical edit streams, one side
/// on the production entry points and the other on the full rebuild, and
/// require identical cells, computations, values, loop counts and degraded
/// marks after every edit and every query batch. They also pin that a
/// structural edit's rebuilt cell count does not grow with program size.
///
//===----------------------------------------------------------------------===//

#include "cfg/edits.h"
#include "daig/daig.h"
#include "domain/interval.h"
#include "interproc/engine.h"
#include "support/budget.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <memory>

namespace dai {

/// Test access to Daig internals (declared a friend in daig/daig.h).
struct DaigTestPeer {
  /// The full rebuild: every location is rebuilt, not only the region.
  template <typename D> static void rebuildEverywhere(Daig<D> &G) {
    G.reconcile(/*Everywhere=*/true);
  }

  /// "" when \p A and \p B hold the same cells, computations, values, loop
  /// instances and degraded marks; else the first difference.
  template <typename D>
  static std::string diff(const Daig<D> &A, const Daig<D> &B) {
    for (const auto &[N, CB] : B.Cells)
      if (!A.Cells.count(N))
        return "cell " + N.toString() + " only on the second side";
    for (const auto &[N, CA] : A.Cells) {
      auto It = B.Cells.find(N);
      if (It == B.Cells.end())
        return "cell " + N.toString() + " only on the first side";
      const auto &CB = It->second;
      if (CA.T != CB.T || CA.hasValue() != CB.hasValue())
        return "cell " + N.toString() + " differs in type or fill";
      if (!CA.hasValue())
        continue;
      if (CA.T == Daig<D>::CellType::StmtTy) {
        if (!(std::get<Stmt>(*CA.V) == std::get<Stmt>(*CB.V)))
          return "statement cell " + N.toString() + " differs";
      } else if (!D::equal(std::get<typename D::Elem>(*CA.V),
                           std::get<typename D::Elem>(*CB.V))) {
        return "value of " + N.toString() + " differs";
      }
    }
    if (A.CompOf.size() != B.CompOf.size())
      return "computation counts differ";
    for (const auto &[N, C] : A.CompOf) {
      auto It = B.CompOf.find(N);
      if (It == B.CompOf.end() || !(It->second == C))
        return "computation of " + N.toString() + " differs";
    }
    if (A.Loops.size() != B.Loops.size())
      return "loop instance counts differ";
    for (const auto &[N, L] : A.Loops) {
      auto It = B.Loops.find(N);
      if (It == B.Loops.end() || It->second.Head != L.Head ||
          It->second.Ctx != L.Ctx || It->second.K != L.K)
        return "loop instance " + N.toString() + " differs";
    }
    if (A.Degraded != B.Degraded)
      return "degraded marks differ";
    return "";
  }
};

} // namespace dai

using namespace dai;
using namespace dai::test;

namespace {

/// Two copies of one function, each with its own DAIG: A reconciles through
/// rebuild() / applyInsertedStatement, B through the full rebuild.
template <typename D> struct TwinDaigs {
  std::unique_ptr<Function> FA, FB;
  std::unique_ptr<Daig<D>> A, B;

  explicit TwinDaigs(const Function &F)
      : FA(std::make_unique<Function>(F)), FB(std::make_unique<Function>(F)) {
    A = std::make_unique<Daig<D>>(&FA->Body, D::initialEntry(FA->Params));
    B = std::make_unique<Daig<D>>(&FB->Body, D::initialEntry(FB->Params));
  }

  /// Applies \p Mutate to both CFGs, then reconciles both DAIGs.
  template <typename Fn> void edit(Fn &&Mutate, const std::string &What) {
    Mutate(FA->Body);
    Mutate(FB->Body);
    A->rebuild();
    DaigTestPeer::rebuildEverywhere(*B);
    check(What);
  }

  void queryAll(const std::string &What) {
    for (Loc L : FA->Body.info().Rpo) {
      typename D::Elem VA = A->queryLocation(L);
      typename D::Elem VB = B->queryLocation(L);
      EXPECT_TRUE(D::equal(VA, VB)) << What << ": l" << L;
    }
    check(What + " (queried)");
  }

  void check(const std::string &What) {
    EXPECT_EQ(DaigTestPeer::diff(*A, *B), "") << What;
    EXPECT_EQ(A->auditInvariants(), "") << What;
    EXPECT_EQ(B->auditInvariants(), "") << What;
    EXPECT_EQ(A->checkAiConsistency(), "") << What;
    EXPECT_EQ(B->checkAiConsistency(), "") << What;
  }
};

Loc destOf(const Cfg &G, const std::string &Text) {
  for (const auto &[Id, E] : G.edges())
    if (E.Label.toString() == Text)
      return E.Dst;
  ADD_FAILURE() << "no edge labelled " << Text;
  return InvalidLoc;
}

EdgeId edgeOf(const Cfg &G, const std::string &Text) {
  for (const auto &[Id, E] : G.edges())
    if (E.Label.toString() == Text)
      return Id;
  ADD_FAILURE() << "no edge labelled " << Text;
  return InvalidEdgeId;
}

ExprPtr lt(const char *V, int64_t C) {
  return Expr::mkBinary(BinaryOp::Lt, Expr::mkVar(V), Expr::mkInt(C));
}

Stmt bump(const char *V, int64_t C) {
  return Stmt::mkAssign(
      V, Expr::mkBinary(BinaryOp::Add, Expr::mkVar(V), Expr::mkInt(C)));
}

constexpr const char *NestedSource = R"(
  function main(n) {
    var i = 0;
    var s = 0;
    while (i < 10) {
      var j = 0;
      while (j < i) {
        s = s + j;
        j = j + 1;
      }
      i = i + 1;
    }
    var t = s + 1;
    return t;
  })";

TEST(DaigReconcile, NestedLoopEditsMatchFullRebuild) {
  TwinDaigs<IntervalDomain> T(mustLowerFn(NestedSource, "main"));
  T.queryAll("initial");
  ASSERT_GT(T.A->unrolledLoopCount(), 0u);

  // Outside every loop: the unrolled loops stay in place.
  size_t Unrolled = T.A->unrolledLoopCount();
  T.edit([](Cfg &G) { insertIfAt(G, destOf(G, "t = s + 1"), lt("t", 5),
                                 bump("t", 1), bump("t", 2)); },
         "if after the loops");
  EXPECT_EQ(T.A->unrolledLoopCount(), Unrolled);
  T.queryAll("if after the loops");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "after loops");

  // Inside the unrolled inner loop: the outer loop rolls back.
  T.edit([](Cfg &G) { insertIfAt(G, destOf(G, "s = s + j"), lt("s", 3),
                                 bump("s", 1), Stmt::mkSkip()); },
         "if in the inner loop");
  EXPECT_EQ(T.A->unrolledLoopCount(), 0u);
  T.queryAll("if in the inner loop");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "inner loop");

  // Splices before the inner and the outer loop heads.
  T.edit([](Cfg &G) { insertStmtAt(G, destOf(G, "j = 0"), bump("s", 1)); },
         "statement before the inner head");
  T.queryAll("before the inner head");
  T.edit([](Cfg &G) { insertWhileAt(G, destOf(G, "s = 0"), lt("s", 4),
                                    bump("s", 1)); },
         "while before the outer head");
  T.queryAll("before the outer head");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "outer head");

  // A loop nested into the inner loop's body, then an edit at its latch.
  T.edit([](Cfg &G) { insertWhileAt(G, destOf(G, "j = j + 1"), lt("j", 7),
                                    bump("j", 2)); },
         "while in the inner loop");
  T.queryAll("while in the inner loop");
  T.edit([](Cfg &G) { insertStmtAt(G, destOf(G, "j = j + 2"), bump("s", 3)); },
         "statement at the new latch");
  T.queryAll("statement at the new latch");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "new latch");
}

TEST(DaigReconcile, ReplaceStmtBeforeRebuildIsCaught) {
  TwinDaigs<IntervalDomain> T(mustLowerFn(NestedSource, "main"));
  T.queryAll("initial");
  // A label change made behind the DAIG's back, then a structural edit
  // elsewhere: the reconcile must pick up both.
  T.edit(
      [](Cfg &G) {
        G.replaceStmt(edgeOf(G, "s = s + j"), bump("s", 5));
        insertStmtAt(G, destOf(G, "t = s + 1"), bump("t", 1));
      },
      "replaceStmt + insertion");
  T.queryAll("replaceStmt + insertion");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "replaceStmt");

  // A label change alone.
  T.edit([](Cfg &G) { G.replaceStmt(edgeOf(G, "t = t + 1"), bump("t", 9)); },
         "replaceStmt alone");
  T.queryAll("replaceStmt alone");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "label only");
}

TEST(DaigReconcile, UnreachableCodeBecomesReachableAndBack) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var x = 1;
      var y = 2;
      var z = x + y;
      return z;
    })",
                           "main");
  // Dead code: a fresh location with a path into the exit, not yet
  // connected to the entry.
  Loc Dead = F.Body.addLoc();
  Loc Dead2 = F.Body.addLoc();
  F.Body.addEdge(Dead, Dead2, Stmt::mkAssign("x", Expr::mkInt(40)));
  F.Body.addEdge(Dead2, destOf(F.Body, "y = 2"), bump("x", 1));
  TwinDaigs<IntervalDomain> T(F);
  T.queryAll("initial");

  EdgeId Link = InvalidEdgeId;
  T.edit([&](Cfg &G) { Link = G.addEdge(destOf(G, "x = 1"), Dead,
                                        Stmt::mkSkip()); },
         "dead code linked in");
  T.queryAll("dead code linked in");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "linked in");

  T.edit([&](Cfg &G) { G.removeEdge(Link); }, "dead code cut off again");
  T.queryAll("dead code cut off again");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "cut off");
}

TEST(DaigReconcile, LoopWrappedInANewOuterLoop) {
  // A raw back edge from the loop's latch to a location before the loop
  // nests the loop inside a new outer loop, which is left through the
  // inner head: the exit successor's source is renamed although its own
  // in-edges are unchanged. Removing the edge unwraps the loop again.
  TwinDaigs<IntervalDomain> T(mustLowerFn(R"(
    function main(n) {
      var a = 0;
      var i = 0;
      while (i < n) { i = i + 1; }
      var x = i;
      return x;
    })",
                                          "main"));
  T.queryAll("initial");
  EdgeId Wrap = InvalidEdgeId;
  T.edit(
      [&](Cfg &G) {
        Wrap = G.addEdge(destOf(G, "i = i + 1"), destOf(G, "a = 0"),
                         Stmt::mkSkip());
      },
      "loop wrapped");
  T.queryAll("loop wrapped");
  T.edit([&](Cfg &G) { G.removeEdge(Wrap); }, "loop unwrapped");
  T.queryAll("loop unwrapped");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "unwrapped");
}

/// Random workload edits (statements, ifs, whiles at random locations, as
/// in the paper's Section 7.3 mix) on twin DAIGs, optionally with every
/// query batch under a small step budget.
void runRandomTwins(uint64_t Seed, unsigned Edits, bool Budgeted) {
  WorkloadOptions WO;
  WO.Seed = Seed;
  WO.NumVars = 6;
  WO.PctStmt = 60; // more ifs and whiles than the paper's mix
  WO.PctIf = 25;
  WO.PctWhile = 15;
  WorkloadGenerator GA(WO), GB(WO);
  Program PA = GA.makeInitialProgram(), PB = GB.makeInitialProgram();
  Function &FA = *PA.find("main"), &FB = *PB.find("main");
  using D = IntervalDomain;
  Daig<D> A(&FA.Body, D::initialEntry(FA.Params));
  Daig<D> B(&FB.Body, D::initialEntry(FB.Params));
  auto check = [&](const std::string &What) {
    ASSERT_EQ(DaigTestPeer::diff(A, B), "") << What;
    ASSERT_EQ(A.auditInvariants(), "") << What;
    ASSERT_EQ(B.auditInvariants(), "") << What;
    ASSERT_EQ(A.checkAiConsistency(), "") << What;
    ASSERT_EQ(B.checkAiConsistency(), "") << What;
  };
  for (unsigned I = 0; I < Edits; ++I) {
    std::string What = "seed " + std::to_string(Seed) + " edit " +
                       std::to_string(I);
    EditRecord RA = GA.applyRandomEdit(PA);
    EditRecord RB = GB.applyRandomEdit(PB);
    ASSERT_EQ(RA.At, RB.At);
    if (RA.Kind == EditKind::InsertStmt)
      A.applyInsertedStatement(RA.At, RA.Splice);
    else
      A.rebuild();
    DaigTestPeer::rebuildEverywhere(B);
    check(What);
    std::vector<Loc> QA = GA.sampleQueryLocations(PA, 5);
    std::vector<Loc> QB = GB.sampleQueryLocations(PB, 5);
    ASSERT_EQ(QA, QB);
    std::vector<D::Elem> Answers;
    for (Daig<D> *G : {&A, &B}) {
      AnalysisBudget Budget;
      Budget.MaxSteps = Budgeted ? 40 : 0;
      std::optional<BudgetScope> Scope;
      if (Budgeted)
        Scope.emplace(Budget);
      for (Loc Q : QA)
        Answers.push_back(G->queryLocation(Q));
    }
    for (size_t Q = 0; Q < QA.size(); ++Q)
      ASSERT_TRUE(D::equal(Answers[Q], Answers[Q + QA.size()]))
          << What << ": query l" << QA[Q];
    check(What + " (queried)");
    if (Budgeted && I % 7 == 6) {
      ASSERT_EQ(A.invalidateDegraded(), B.invalidateDegraded()) << What;
      check(What + " (degraded cells invalidated)");
    }
  }
}

TEST(DaigReconcile, RandomEditStreamsMatchFullRebuild) {
  for (uint64_t Seed : {3u, 17u, 42u})
    runRandomTwins(Seed, 60, /*Budgeted=*/false);
}

TEST(DaigReconcile, BudgetedEditStreamsMatchFullRebuild) {
  for (uint64_t Seed : {5u, 23u})
    runRandomTwins(Seed, 50, /*Budgeted=*/true);
}

/// Twin engines at k=1: random structural edits inside callees, reconciled
/// by applyStructuralEdit on one side and by the full rebuild of every
/// instance of the edited function on the other.
TEST(DaigReconcile, EngineCalleeEditsMatchFullRebuild) {
  const char *Src = R"(
    function h(x) {
      var r = x;
      var i = 0;
      while (i < x) { i = i + 1; r = r + 2; }
      return r;
    }
    function g(y) { var s = h(y); var u = s + 1; return u; }
    function main(n) {
      var a = g(n);
      var b = h(3);
      var c = g(a);
      return b + c;
    })";
  using D = IntervalDomain;
  using Engine = InterprocEngine<D>;
  Engine EA(mustLower(Src), "main", 1), EB(mustLower(Src), "main", 1);
  ASSERT_TRUE(EA.valid()) << EA.error();
  auto instances = [](Engine &E) {
    std::vector<std::pair<std::string, Daig<D> *>> Out;
    E.forEachInstance([&](const Engine::InstanceKey &K, Daig<D> &G) {
      Out.emplace_back(K.toString(), &G);
    });
    return Out;
  };
  auto check = [&](const std::string &What) {
    auto IA = instances(EA), IB = instances(EB);
    ASSERT_EQ(IA.size(), IB.size()) << What;
    for (size_t I = 0; I < IA.size(); ++I) {
      ASSERT_EQ(IA[I].first, IB[I].first) << What;
      ASSERT_EQ(DaigTestPeer::diff(*IA[I].second, *IB[I].second), "")
          << What << " in " << IA[I].first;
    }
    ASSERT_EQ(EA.auditInvariants(), "") << What;
    ASSERT_EQ(EB.auditInvariants(), "") << What;
  };
  auto queryBoth = [&](const std::string &What) {
    for (Loc L : EA.cfgOf("main")->info().Rpo)
      ASSERT_TRUE(D::equal(EA.queryMain(L), EB.queryMain(L)))
          << What << ": main l" << L;
    check(What + " (queried)");
  };
  queryBoth("initial");

  Rng R(11);
  const char *Vars[] = {"r", "i", "x"};
  for (int Step = 0; Step < 40; ++Step) {
    std::string Fn = R.below(2) ? "h" : "g";
    const char *V = Fn == "h" ? Vars[R.below(3)] : "s";
    const Cfg &Body = *EA.cfgOf(Fn);
    std::vector<Loc> Sites;
    for (Loc L : Body.info().Rpo)
      if (L != Body.exit())
        Sites.push_back(L);
    Loc At = Sites[R.below(Sites.size())];
    int64_t C = R.range(-3, 3);
    unsigned Kind = static_cast<unsigned>(R.below(3));
    InsertResult Splice;
    for (Engine *E : {&EA, &EB}) {
      Cfg &G = E->program().find(Fn)->Body;
      if (Kind == 0)
        Splice = insertStmtAt(G, At, bump(V, C));
      else if (Kind == 1)
        insertIfAt(G, At, lt(V, C), bump(V, 1), Stmt::mkAssign(V, Expr::mkInt(C)));
      else
        insertWhileAt(G, At, lt(V, 4), bump(V, 1));
    }
    std::string What = "step " + std::to_string(Step) + " in " + Fn;
    if (Kind == 0)
      EA.applyInsertedStatementEdit(Fn, At, Splice);
    else
      EA.applyStructuralEdit(Fn);
    SymbolId FnId = internSymbol(Fn);
    EB.forEachInstance([&](const Engine::InstanceKey &K, Daig<D> &G) {
      if (K.Fn == FnId)
        DaigTestPeer::rebuildEverywhere(G);
    });
    EB.applyStructuralEdit(Fn); // drains the exits the full rebuild emptied
    check(What);
    queryBoth(What);
  }
}

/// A straight-line main of \p N statements.
Function straightLine(unsigned N) {
  std::string Src = "function main(n) {\n  var x0 = n;\n";
  for (unsigned I = 1; I < N; ++I)
    Src += "  var x" + std::to_string(I) + " = x" + std::to_string(I - 1) +
           " + 1;\n";
  Src += "  return x" + std::to_string(N - 1) + ";\n}\n";
  return mustLowerFn(Src, "main");
}

/// The rebuilt-cell count of an if-insertion outside loops depends on the
/// edit, not on the size of the program around it.
TEST(DaigReconcile, RebuiltCellsDoNotGrowWithProgramSize) {
  auto rebuiltCells = [](unsigned N) {
    Function F = straightLine(N);
    Statistics Stats;
    Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params),
                           &Stats);
    G.queryAllLocations();
    uint64_t Before = Stats.CellsRebuilt;
    insertIfAt(F.Body, destOf(F.Body, "x1 = x0 + 1"), lt("x1", 3),
               bump("x1", 1), bump("x1", 2));
    G.rebuild();
    EXPECT_EQ(G.auditInvariants(), "");
    expectFromScratchConsistent<IntervalDomain>(F, G, "if insertion");
    return Stats.CellsRebuilt - Before;
  };
  uint64_t Small = rebuiltCells(50), Large = rebuiltCells(500);
  EXPECT_GT(Small, 0u);
  EXPECT_EQ(Small, Large);
}

} // namespace
