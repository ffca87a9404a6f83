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
/// structural edit's rebuilt cell count does not grow with program size,
/// that a statement edit through the DAIG's own API spares the next
/// reconcile the label scan, check E-Loop rollback's forward walk against
/// the whole-DAIG scan it replaced (DaigRollback), and check the location
/// readers three loops deep across a query, an edit and a budget
/// (DaigLocationReaders).
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

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>

namespace dai {

/// Test access to Daig internals (declared a friend in daig/daig.h).
struct DaigTestPeer {
  /// The full rebuild: every location is rebuilt, not only the region.
  template <typename D> static void rebuildEverywhere(Daig<D> &G) {
    G.reconcile(/*Everywhere=*/true);
  }

  /// A computation with its sources as keys: comparable across DAIGs.
  template <typename D>
  static std::optional<std::pair<FnKind, std::vector<CellKey>>>
  compOf(const Daig<D> &G, const typename Daig<D>::Cell &C) {
    if (!C.Def)
      return std::nullopt;
    std::vector<CellKey> Srcs;
    for (CellId S : C.Def->Srcs)
      Srcs.push_back(G.Cells[S].Key);
    return std::make_pair(C.Def->F, std::move(Srcs));
  }

  /// "" when \p A and \p B hold the same cells, computations, values, loop
  /// instances and degraded marks, and their statement cells read the same
  /// (edge, label stamp); else the first difference.
  template <typename D>
  static std::string diff(const Daig<D> &A, const Daig<D> &B) {
    for (const auto &CB : B.Cells)
      if (CB.Key.valid() && A.find(CB.Key) == kNoCell)
        return "cell " + CB.Key.toString() + " only on the second side";
    for (const auto &CA : A.Cells) {
      if (!CA.Key.valid())
        continue;
      std::string N = CA.Key.toString();
      CellId IB = B.find(CA.Key);
      if (IB == kNoCell)
        return "cell " + N + " only on the first side";
      const auto &CB = B.Cells[IB];
      if (CA.Edge != CB.Edge || CA.Stamp != CB.Stamp)
        return "statement cell " + N + " reads another edge or label";
      if (CA.hasValue() != CB.hasValue())
        return "cell " + N + " differs in fill";
      if (compOf(A, CA) != compOf(B, CB))
        return "computation of " + N + " differs";
      if (CA.K != CB.K)
        return "loop instance " + N + " differs";
      if (CA.Degraded != CB.Degraded)
        return "degraded marks differ at " + N;
      if (CA.hasValue() && !D::equal(*CA.V, *CB.V))
        return "value of " + N + " differs";
    }
    return "";
  }

  /// The keys of \p G's cells.
  template <typename D> static std::set<CellKey> cellKeys(const Daig<D> &G) {
    std::set<CellKey> Out;
    for (const auto &C : G.Cells)
      if (C.Key.valid())
        Out.insert(C.Key);
    return Out;
  }

  /// One loop instance as a DAIG records it.
  struct LoopRecord {
    CellKey Fix;
    Loc Head;
    std::vector<std::pair<Loc, uint32_t>> Ctx; ///< Enclosing counts.
    uint32_t K;
  };
  /// Head and enclosing counts are read from the fix cell's key.
  template <typename D>
  static std::vector<LoopRecord> loops(const Daig<D> &G) {
    std::vector<LoopRecord> Out;
    for (const auto &C : G.Cells) {
      if (!C.K)
        continue;
      LoopRecord R{C.Key, C.Key.loc(), {}, C.K};
      std::span<const Loc> Nest = G.info().loopNest(R.Head);
      std::span<const uint32_t> Counts = C.Key.counts();
      for (size_t I = 0; I < Counts.size(); ++I)
        R.Ctx.emplace_back(Nest[I], Counts[I]);
      Out.push_back(std::move(R));
    }
    return Out;
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

/// A main whose loops nest \p Depth deep, each running twice.
std::string deepNestSource(unsigned Depth) {
  std::string Src = "function main(n) {\n  var s = 0;\n";
  for (unsigned I = 0; I < Depth; ++I) {
    std::string V = "i" + std::to_string(I);
    Src += "var " + V + " = 0;\nwhile (" + V + " < 2) {\n";
  }
  Src += "s = s + 1;\n";
  for (unsigned I = Depth; I-- > 0;)
    Src += "i" + std::to_string(I) + " = i" + std::to_string(I) + " + 1;\n}\n";
  return Src + "  return s;\n}\n";
}

// Seven nested loops: the innermost cells' keys hold more counts than a key
// keeps inline (CellKey::kInlineCounts), so they spill to the heap, move
// with their cells and are copied into the reconcile log. Queries, an edit
// in the innermost body and one after the loops agree with the full
// rebuild and with a from-scratch run.
TEST(DaigReconcile, KeysDeeperThanInlineCountsMatchFullRebuild) {
  constexpr unsigned Depth = CellKey::kInlineCounts + 1;
  TwinDaigs<IntervalDomain> T(mustLowerFn(deepNestSource(Depth), "main"));
  T.queryAll("initial");
  ASSERT_GT(T.A->unrolledLoopCount(), 0u);
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "initial");

  T.edit([](Cfg &G) { insertIfAt(G, destOf(G, "s = s + 1"), lt("s", 3),
                                 bump("s", 1), bump("s", 2)); },
         "if in the innermost body");
  T.queryAll("if in the innermost body");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "innermost if");

  T.edit([](Cfg &G) { G.replaceStmt(edgeOf(G, "s = s + 1"), bump("s", 4)); },
         "statement in the innermost body");
  T.queryAll("statement in the innermost body");
  expectFromScratchConsistent<IntervalDomain>(*T.FA, *T.A, "innermost stmt");
}

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

// A statement edit made through the DAIG's own API leaves it matched with
// its graph: the next insertion probes the key index for its candidate
// locations only, exactly as a DAIG built on the edited graph does. A label
// changed behind the DAIG's back still forces the scan of every label.
TEST(DaigReconcile, OwnStatementEditsSkipTheLabelScan) {
  Function FA = straightLine(12);
  Daig<IntervalDomain> A(&FA.Body, IntervalDomain::initialEntry(FA.Params));
  A.queryAllLocations();
  ASSERT_TRUE(A.applyStatementEdit(edgeOf(FA.Body, "x1 = x0 + 1"),
                                   bump("x1", 2)));
  Function FB = FA; // the edited program, with a DAIG of its own
  Daig<IntervalDomain> B(&FB.Body, IntervalDomain::initialEntry(FB.Params));
  B.queryAllLocations();
  auto insertionProbes = [](Function &F, Daig<IntervalDomain> &G,
                            const std::string &After) {
    uint64_t Before = nameTableCounters().InternHits;
    Loc At = destOf(F.Body, After);
    G.applyInsertedStatement(At, insertStmtAt(F.Body, At, bump("x5", 1)));
    return nameTableCounters().InternHits - Before;
  };
  EXPECT_EQ(insertionProbes(FA, A, "x5 = x4 + 1"),
            insertionProbes(FB, B, "x5 = x4 + 1"));

  FA.Body.replaceStmt(edgeOf(FA.Body, "x9 = x8 + 1"), bump("x9", 3));
  ASSERT_TRUE(B.applyStatementEdit(edgeOf(FB.Body, "x9 = x8 + 1"),
                                   bump("x9", 3)));
  EXPECT_GT(insertionProbes(FA, A, "x10 = x9 + 1"),
            insertionProbes(FB, B, "x10 = x9 + 1"));
  EXPECT_EQ(A.auditInvariants(), "");
  EXPECT_EQ(B.auditInvariants(), "");
  expectFromScratchConsistent<IntervalDomain>(FA, A, "label behind its back");
  expectFromScratchConsistent<IntervalDomain>(FB, B, "label through its API");
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

  // A statement edit of dead code through the DAIG's API: no cell reads
  // the edge, so the reconcile that links it in reads the new label.
  for (auto [Fn, G] : {std::pair{T.FA.get(), T.A.get()},
                       std::pair{T.FB.get(), T.B.get()}})
    ASSERT_TRUE(G->applyStatementEdit(edgeOf(Fn->Body, "x = 40"),
                                      Stmt::mkAssign("x", Expr::mkInt(30))));
  T.check("dead code edited");

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

//===----------------------------------------------------------------------===//
// E-Loop rollback against the whole-DAIG scan it replaced
//===----------------------------------------------------------------------===//

/// The selection rule of the scan over every cell that E-Loop rollback
/// once ran, kept as the reference for the forward walk that replaced it.
/// A cell belongs to instance \p I's unrolled region when its state part (a
/// pre-join cell's state, a pre-widen cell's first iterate) lies in I's
/// loop at a count ≥ 1 under I's enclosing counts — except iterate 1 and
/// the pre-widen cell (0, 1), which the rollback keeps.
bool inUnrolledRegion(const CellKey &N, const DaigTestPeer::LoopRecord &I,
                      const CfgInfo &Info) {
  auto countOf = [&](Loc H, uint32_t AtHead) -> uint32_t {
    if (H == I.Head)
      return AtHead;
    for (const auto &[CH, C] : I.Ctx)
      if (CH == H)
        return C;
    return 0;
  };
  std::vector<uint32_t> Enclosing; // the fix cell's counts
  std::span<const Loc> HeadNest = Info.loopNest(I.Head);
  for (Loc H : HeadNest.first(HeadNest.size() - 1))
    Enclosing.push_back(countOf(H, 0));
  CellKey Fix = CellKey::state(I.Head, Enclosing);
  if (N == Fix.iterate(1) || N == Fix.preWiden(0))
    return false;
  if (N.shape() == CellKey::Shape::Stmt)
    return false;
  // The state part's location and counts.
  std::span<const uint32_t> Counts = N.counts();
  std::span<const Loc> Nest = Info.loopNest(N.loc());
  size_t P = std::find(Nest.begin(), Nest.end(), I.Head) - Nest.begin();
  if (P >= Nest.size() || P >= Counts.size() || Counts[P] < 1)
    return false;
  for (size_t Q = 0; Q < P; ++Q)
    if (Counts[Q] != countOf(Nest[Q], 0))
      return false;
  return true;
}

/// \p Keys as text, for failure messages.
std::string listed(const std::set<CellKey> &Keys) {
  std::string Out;
  for (const CellKey &K : Keys)
    Out += K.toString() + " ";
  return Out;
}

/// Replaces the statement on edge \p Id of \p G's graph by \p New and checks
/// that the edit removes exactly the cells the reference rule selects for
/// the instances it rolls back and leaves \p G audit-clean. Returns the
/// unrolled instances the edit leaves unrolled.
size_t checkRollbackEdit(Daig<IntervalDomain> &G, EdgeId Id, Stmt New) {
  std::set<CellKey> Before = DaigTestPeer::cellKeys(G);
  std::vector<DaigTestPeer::LoopRecord> LoopsBefore = DaigTestPeer::loops(G);
  EXPECT_TRUE(G.applyStatementEdit(Id, std::move(New)));
  std::set<CellKey> After = DaigTestPeer::cellKeys(G);
  std::map<CellKey, uint32_t> KAfter;
  for (const DaigTestPeer::LoopRecord &I : DaigTestPeer::loops(G))
    KAfter[I.Fix] = I.K;

  std::set<CellKey> Expected;
  size_t Kept = 0;
  for (const DaigTestPeer::LoopRecord &I : LoopsBefore) {
    if (I.K <= 1)
      continue;
    auto It = KAfter.find(I.Fix);
    if (It != KAfter.end() && It->second == I.K) {
      ++Kept;
      continue;
    }
    for (const CellKey &N : Before)
      if (inUnrolledRegion(N, I, G.info()))
        Expected.insert(N);
  }
  std::set<CellKey> Removed;
  std::set_difference(Before.begin(), Before.end(), After.begin(),
                      After.end(), std::inserter(Removed, Removed.end()));
  EXPECT_TRUE(std::includes(Before.begin(), Before.end(), After.begin(),
                            After.end()))
      << "the edit built cells";
  EXPECT_EQ(listed(Removed), listed(Expected));
  EXPECT_EQ(G.auditInvariants(), "");
  return Kept;
}

/// One statement edit and what it must cost. The counters are the ones the
/// scan-based rollback gave, so a change in the order dirtying visits
/// dependents (which decides how many region cells are emptied before
/// their rollback deletes them) fails here.
struct RollbackEdit {
  const char *Label; ///< The statement replaced.
  Stmt New;
  uint64_t Dirtied;   ///< Statistics::CellsDirtied of the edit.
  uint64_t Transfers; ///< Statistics::Transfers of the re-query after it.
  size_t Kept;        ///< Unrolled instances the edit leaves unrolled.
};

/// Applies \p Edits in turn to a fully queried DAIG of \p Source: each must
/// pass checkRollbackEdit, cost the pinned counters and re-answer every
/// location as a from-scratch run does.
void checkRollbacks(const char *Source,
                    const std::vector<RollbackEdit> &Edits) {
  Function F = mustLowerFn(Source, "main");
  Statistics Stats;
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params),
                         &Stats);
  G.queryAllLocations();
  for (const RollbackEdit &E : Edits) {
    SCOPED_TRACE(E.Label);
    uint64_t Dirtied = Stats.CellsDirtied, Transfers = Stats.Transfers;
    EXPECT_EQ(checkRollbackEdit(G, edgeOf(F.Body, E.Label), E.New), E.Kept);
    EXPECT_EQ(Stats.CellsDirtied - Dirtied, E.Dirtied);
    expectFromScratchConsistent<IntervalDomain>(F, G, E.Label);
    EXPECT_EQ(Stats.Transfers - Transfers, E.Transfers);
  }
}

/// NestedSource with a third loop in the inner body; the inner loop's bound
/// leaves it unrolled at outer count 0 too.
constexpr const char *TripleNestedSource = R"(
  function main(n) {
    var i = 0;
    var s = 0;
    while (i < 10) {
      var j = 0;
      while (j < i + 2) {
        s = s + j;
        var k = 0;
        while (k < j) {
          k = k + 1;
        }
        j = j + 1;
      }
      i = i + 1;
    }
    var t = s + 1;
    return t;
  })";

// Each program takes an edit in the inner body, one at the outer latch after
// the inner loop, and one before the outer loop.
TEST(DaigRollback, NestedLoopsDeleteWhatTheScanSelected) {
  checkRollbacks(NestedSource,
                 {{"s = s + j", bump("s", 2), 13, 35, 0},
                  {"i = i + 1", bump("i", 2), 7, 31, 0},
                  {"s = 0", Stmt::mkAssign("s", Expr::mkInt(1)), 17, 39, 0}});
}

// At the outer latch, the two unrolled instances at outer count 0 keep
// their unrollings.
TEST(DaigRollback, TripleNestedLoopsDeleteWhatTheScanSelected) {
  checkRollbacks(TripleNestedSource,
                 {{"s = s + j", bump("s", 2), 43, 52, 0},
                  {"i = i + 1", bump("i", 2), 7, 31, 2},
                  {"s = 0", Stmt::mkAssign("s", Expr::mkInt(1)), 24, 56, 0}});
}

/// Generated programs with nested loops (random while and if insertions),
/// fully queried, then statement edits inside loops: every rollback deletes
/// what the reference rule selects.
TEST(DaigRollback, GeneratedProgramsDeleteWhatTheScanSelected) {
  size_t RolledBackEdits = 0;
  for (uint64_t Seed : {3u, 17u, 42u}) {
    WorkloadOptions WO;
    WO.Seed = Seed;
    WO.NumVars = 6;
    WO.PctStmt = 50;
    WO.PctIf = 20;
    WO.PctWhile = 30;
    WorkloadGenerator Gen(WO);
    Program P = Gen.makeInitialProgram();
    for (int I = 0; I < 40; ++I)
      Gen.applyRandomEdit(P);
    Function &F = *P.find("main");
    Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
    Rng R(Seed);
    for (int I = 0; I < 40; ++I) {
      G.queryAllLocations();
      std::vector<EdgeId> InLoops;
      for (const auto &[Id, E] : F.Body.edges())
        if (E.Label.Kind == StmtKind::Assign && G.info().reachable(E.Dst) &&
            G.info().inAnyLoop(E.Dst))
          InLoops.push_back(Id);
      ASSERT_FALSE(InLoops.empty()) << "seed " << Seed;
      EdgeId Id = InLoops[R.below(InLoops.size())];
      std::string Var = F.Body.findEdge(Id)->Label.Lhs;
      size_t Unrolled = G.unrolledLoopCount();
      SCOPED_TRACE("seed " + std::to_string(Seed) + " edit " +
                   std::to_string(I));
      checkRollbackEdit(G, Id, bump(Var.c_str(), R.range(-3, 3)));
      RolledBackEdits += G.unrolledLoopCount() < Unrolled;
    }
    expectFromScratchConsistent<IntervalDomain>(F, G, "generated");
  }
  EXPECT_GT(RolledBackEdits, 20u);
}

//===----------------------------------------------------------------------===//
// The location readers three loops deep
//===----------------------------------------------------------------------===//

/// TripleNestedSource's main with its CFG facts, the head of its outermost
/// loop and the from-scratch answers.
struct TripleNested {
  Function F = mustLowerFn(TripleNestedSource, "main");
  CfgInfo Info = analyzeCfg(F.Body);
  Loc Outer = destOf(F.Body, "s = 0");
  std::map<Loc, IntervalState> Batch =
      BatchInterpreter<IntervalDomain>(F.Body, Info)
          .run(IntervalDomain::initialEntry(F.Params));

  /// True when \p L precedes the outermost loop (its head excluded).
  bool beforeLoop(Loc L) const {
    return std::find(Info.Rpo.begin(), Info.Rpo.end(), L) <
           std::find(Info.Rpo.begin(), Info.Rpo.end(), Outer);
  }
};

// A query makes its location ready, at every depth, and a ready
// location re-queries without filling a cell.
TEST(DaigLocationReaders, QueryMakesItsLocationReady) {
  TripleNested T;
  ASSERT_TRUE(T.Info.valid()) << T.Info.Error;
  ASSERT_TRUE(T.Info.isLoopHead(T.Outer));
  ASSERT_EQ(T.Info.loopDepth(destOf(T.F.Body, "k = k + 1")), 3u);
  for (Loc L : T.Info.Rpo) {
    SCOPED_TRACE("location l" + std::to_string(L) + ", depth " +
                 std::to_string(T.Info.loopDepth(L)));
    Daig<IntervalDomain> G(&T.F.Body,
                           IntervalDomain::initialEntry(T.F.Params));
    for (Loc X : T.Info.Rpo) // the entry cell holds φ0 from the start
      EXPECT_EQ(G.locationValueReady(X), X == T.F.Body.entry())
          << "l" << X << " before a query";
    IntervalState Got = G.queryLocation(L);
    EXPECT_TRUE(G.locationValueReady(L));
    EXPECT_FALSE(G.locationDegraded(L));
    EXPECT_TRUE(IntervalDomain::equal(Got, T.Batch.at(L)))
        << "demanded=" << IntervalDomain::toString(Got)
        << " batch=" << IntervalDomain::toString(T.Batch.at(L));
    uint64_t Fills = G.stateFills();
    EXPECT_TRUE(IntervalDomain::equal(G.queryLocation(L), Got));
    EXPECT_EQ(G.stateFills(), Fills);
  }
}

// An edit in the innermost body unreadies every location in the outermost
// loop and after it; the locations before the loop keep their answers.
TEST(DaigLocationReaders, EditUnreadiesWhatItDirtied) {
  TripleNested T;
  Daig<IntervalDomain> G(&T.F.Body, IntervalDomain::initialEntry(T.F.Params));
  G.queryAllLocations();
  for (Loc L : T.Info.Rpo)
    EXPECT_TRUE(G.locationValueReady(L)) << "l" << L << " after every query";
  ASSERT_TRUE(G.applyStatementEdit(edgeOf(T.F.Body, "k = k + 1"),
                                   bump("k", 2)));
  size_t Before = 0;
  for (Loc L : T.Info.Rpo) {
    bool Kept = T.beforeLoop(L);
    Before += Kept;
    EXPECT_EQ(G.locationValueReady(L), Kept) << "l" << L;
  }
  EXPECT_EQ(Before, 2u); // the entry and the location after i = 0
  uint64_t Fills = G.stateFills();
  for (Loc L : T.Info.Rpo)
    if (T.beforeLoop(L))
      (void)G.queryLocation(L);
  EXPECT_EQ(G.stateFills(), Fills) << "a ready location filled a cell";
  expectFromScratchConsistent<IntervalDomain>(T.F, G, "after the edit");
}

// A step budget that degrades the outermost fix cell makes every location
// in that loop read degraded and ready, answered by the fix value.
TEST(DaigLocationReaders, DegradedFixAnswersForItsLoop) {
  TripleNested T;
  Loc Inner = destOf(T.F.Body, "k = k + 1");
  size_t Degraded = 0;
  for (uint64_t Steps = 1; Steps <= 40; ++Steps) {
    SCOPED_TRACE("MaxSteps " + std::to_string(Steps));
    Daig<IntervalDomain> G(&T.F.Body,
                           IntervalDomain::initialEntry(T.F.Params));
    {
      AnalysisBudget B;
      B.MaxSteps = Steps;
      BudgetScope Scope(B);
      (void)G.queryLocation(Inner);
    }
    // The outermost loop's fix cell is its head's key: no enclosing count.
    if (!G.cellDegraded(CellKey::state(T.Outer)))
      continue;
    ++Degraded;
    IntervalState Fix = G.queryLocation(T.Outer);
    for (Loc L : T.Info.loopBody(T.Outer)) {
      EXPECT_TRUE(G.locationDegraded(L)) << "l" << L;
      EXPECT_TRUE(G.locationValueReady(L)) << "l" << L;
      uint64_t Fills = G.stateFills();
      EXPECT_TRUE(IntervalDomain::equal(G.queryLocation(L), Fix)) << "l" << L;
      EXPECT_EQ(G.stateFills(), Fills) << "l" << L;
    }
    EXPECT_EQ(G.auditInvariants(), "");
  }
  EXPECT_GT(Degraded, 0u);
}

} // namespace
