//===-- tests/cfg_analysis_test.cpp - CfgInfo against its definitions -----===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks every structural fact analyzeCfg derives against a brute-force
/// oracle that shares no code with it: dominance as "remove d; is L still
/// reachable?", back edges as edges whose Dst dominates their Src, natural
/// loops by backward reachability, nests by body containment, forward
/// in-edges and join points by scanning the edges, and the reverse postorder
/// by the property DAIG construction relies on (it lists exactly the
/// reachable locations and every non-back edge moves forward in it). Inputs
/// are generated programs under both edit mixes and hand-built graphs for
/// the two diagnostics and the corner cases structured lowering never
/// produces.
///
/// The second half pins the snapshot-cache contract of Cfg::infoShared that
/// edit cost relies on: statement edits keep the snapshot, shape edits
/// replace it, a pinned snapshot never changes, and on the ide_recheck op
/// path the generator and the DAIG share one snapshot per edit.
///
//===----------------------------------------------------------------------===//

#include "analysis/checker.h"
#include "cfg/cfg_analysis.h"
#include "cfg/edits.h"
#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/interval.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>

using namespace dai;

namespace {

std::vector<EdgeId> asVector(std::span<const EdgeId> S) {
  return {S.begin(), S.end()};
}
std::vector<Loc> locVector(std::span<const Loc> S) {
  return {S.begin(), S.end()};
}

/// Structural facts of a graph computed straight from their definitions,
/// quadratically, by scanning the live edges.
struct Oracle {
  const Cfg &G;
  uint32_t N;
  std::vector<char> Reach;
  /// Dom[A][B]: every entry→B path passes through A.
  std::vector<std::vector<char>> Dom;

  explicit Oracle(const Cfg &G) : G(G), N(G.numLocs()) {
    Reach = reachableAvoiding(InvalidLoc);
    Dom.assign(N, std::vector<char>(N, 0));
    for (Loc A = 0; A < N; ++A) {
      if (!Reach[A])
        continue;
      std::vector<char> Without = reachableAvoiding(A);
      for (Loc B = 0; B < N; ++B)
        Dom[A][B] = Reach[B] && (A == B || !Without[B]);
    }
  }

  /// Locations reachable from the entry on paths that avoid \p Cut.
  std::vector<char> reachableAvoiding(Loc Cut) const {
    std::vector<char> Seen(N, 0);
    if (G.entry() == Cut)
      return Seen;
    std::vector<Loc> Work = {G.entry()};
    Seen[G.entry()] = 1;
    while (!Work.empty()) {
      Loc L = Work.back();
      Work.pop_back();
      for (const auto &[Id, E] : G.edges())
        if (E.Src == L && E.Dst != Cut && !Seen[E.Dst]) {
          Seen[E.Dst] = 1;
          Work.push_back(E.Dst);
        }
    }
    return Seen;
  }

  bool isBack(const CfgEdge &E) const { return Reach[E.Src] && Dom[E.Dst][E.Src]; }

  /// {H} ∪ the reachable locations that reach the back edge's source
  /// without passing through H, ascending.
  std::vector<Loc> body(Loc H, Loc Latch) const {
    std::vector<char> In(N, 0);
    In[H] = 1;
    std::vector<Loc> Work;
    if (!In[Latch]) {
      In[Latch] = 1;
      Work.push_back(Latch);
    }
    while (!Work.empty()) {
      Loc L = Work.back();
      Work.pop_back();
      for (const auto &[Id, E] : G.edges())
        if (E.Dst == L && Reach[E.Src] && !In[E.Src]) {
          In[E.Src] = 1;
          Work.push_back(E.Src);
        }
    }
    std::vector<Loc> Out;
    for (Loc L = 0; L < N; ++L)
      if (In[L])
        Out.push_back(L);
    return Out;
  }
};

/// Facts meaningful even for an ill-formed graph: reachability, dominance,
/// adjacency, edge sources and the reverse postorder.
void expectBaseFacts(const Cfg &G, const CfgInfo &Info, const Oracle &O,
                     const std::string &Ctx) {
  ASSERT_EQ(Info.numLocs(), G.numLocs()) << Ctx;
  for (Loc L = 0; L < O.N; ++L) {
    EXPECT_EQ(Info.reachable(L), bool(O.Reach[L])) << Ctx << " l" << L;
    std::vector<EdgeId> Succ, Pred;
    for (const auto &[Id, E] : G.edges()) {
      if (E.Src == L)
        Succ.push_back(Id);
      if (E.Dst == L)
        Pred.push_back(Id);
    }
    EXPECT_EQ(asVector(Info.succEdges(L)), Succ) << Ctx << " l" << L;
    EXPECT_EQ(asVector(Info.predEdges(L)), Pred) << Ctx << " l" << L;
    for (Loc B = 0; B < O.N; ++B)
      ASSERT_EQ(Info.dominates(L, B), bool(O.Dom[L][B]))
          << Ctx << " dominates(l" << L << ", l" << B << ")";
  }
  for (EdgeId Id = 0; Id < G.numEdgeIds(); ++Id) {
    const CfgEdge *E = G.findEdge(Id);
    EXPECT_EQ(Info.edgeSrc(Id), E ? E->Src : InvalidLoc) << Ctx << " e" << Id;
  }

  // RPO: exactly the reachable locations, once each, entry first, and, in
  // a well-formed graph, every edge that is not a back edge moves forward
  // in it (an irreducible graph has a retreating edge that is no back
  // edge).
  std::vector<uint32_t> Pos(O.N, ~0u);
  for (uint32_t I = 0; I < Info.Rpo.size(); ++I) {
    Loc L = Info.Rpo[I];
    ASSERT_LT(L, O.N) << Ctx;
    EXPECT_TRUE(O.Reach[L]) << Ctx << " unreachable l" << L << " in Rpo";
    EXPECT_EQ(Pos[L], ~0u) << Ctx << " l" << L << " twice in Rpo";
    Pos[L] = I;
  }
  EXPECT_EQ(Info.Rpo.size(),
            size_t(std::count(O.Reach.begin(), O.Reach.end(), 1)))
      << Ctx;
  ASSERT_FALSE(Info.Rpo.empty()) << Ctx;
  EXPECT_EQ(Info.Rpo.front(), G.entry()) << Ctx;
  if (!Info.valid())
    return;
  for (const auto &[Id, E] : G.edges()) {
    if (O.Reach[E.Src] && !O.isBack(E)) {
      EXPECT_LT(Pos[E.Src], Pos[E.Dst]) << Ctx << " non-back edge e" << Id;
    }
  }
}

/// Every fact of a well-formed graph.
void expectMatchesOracle(const Cfg &G, const CfgInfo &Info,
                         const std::string &Ctx) {
  Oracle O(G);
  ASSERT_TRUE(Info.valid()) << Ctx << ": " << Info.Error;
  expectBaseFacts(G, Info, O, Ctx);

  // Back edges and heads.
  std::vector<Loc> Heads;
  std::vector<EdgeId> BackOf(O.N, InvalidEdgeId);
  for (const auto &[Id, E] : G.edges()) {
    EXPECT_EQ(Info.isBackEdge(Id), O.isBack(E)) << Ctx << " e" << Id;
    if (O.isBack(E)) {
      ASSERT_EQ(BackOf[E.Dst], InvalidEdgeId) << Ctx << " two back edges";
      BackOf[E.Dst] = Id;
      Heads.push_back(E.Dst);
    }
  }
  std::sort(Heads.begin(), Heads.end());
  EXPECT_EQ(locVector(Info.loopHeads()), Heads) << Ctx;

  // Natural loops.
  std::vector<std::vector<Loc>> Body(O.N);
  for (Loc H : Heads)
    Body[H] = O.body(H, G.findEdge(BackOf[H])->Src);
  for (Loc L = 0; L < O.N; ++L) {
    EXPECT_EQ(Info.backEdgeOf(L), BackOf[L]) << Ctx << " l" << L;
    EXPECT_EQ(Info.isLoopHead(L), BackOf[L] != InvalidEdgeId) << Ctx;
    EXPECT_EQ(locVector(Info.loopBody(L)), Body[L]) << Ctx << " body l" << L;
  }

  // Nests: the heads whose bodies hold L, largest body first, then by id;
  // each body contains the next one.
  for (Loc L = 0; L < O.N; ++L) {
    std::vector<Loc> Nest;
    for (Loc H : Heads)
      if (std::binary_search(Body[H].begin(), Body[H].end(), L))
        Nest.push_back(H);
    std::sort(Nest.begin(), Nest.end(), [&](Loc A, Loc B) {
      return Body[A].size() != Body[B].size() ? Body[A].size() > Body[B].size()
                                              : A < B;
    });
    EXPECT_EQ(locVector(Info.loopNest(L)), Nest) << Ctx << " nest l" << L;
    for (size_t I = 1; I < Nest.size(); ++I)
      EXPECT_TRUE(std::includes(Body[Nest[I - 1]].begin(),
                                Body[Nest[I - 1]].end(),
                                Body[Nest[I]].begin(), Body[Nest[I]].end()))
          << Ctx << " nest of l" << L << " is not outermost-first";
    if (!Nest.empty() && Info.isLoopHead(L)) {
      EXPECT_EQ(Nest.back(), L) << Ctx << " a head's own loop is innermost";
    }
    EXPECT_EQ(Info.loopDepth(L), Nest.size()) << Ctx;
    EXPECT_EQ(Info.inAnyLoop(L), !Nest.empty()) << Ctx;
    for (Loc H : Heads)
      EXPECT_EQ(Info.inLoop(H, L),
                std::binary_search(Body[H].begin(), Body[H].end(), L))
          << Ctx << " inLoop(l" << H << ", l" << L << ")";
  }

  // Forward in-edges in EdgeId order, their 1-based indices, join points.
  for (Loc L = 0; L < O.N; ++L) {
    std::vector<EdgeId> Fwd;
    for (const auto &[Id, E] : G.edges())
      if (E.Dst == L && O.Reach[E.Src] && !O.isBack(E))
        Fwd.push_back(Id);
    EXPECT_EQ(asVector(Info.fwdEdgesTo(L)), Fwd) << Ctx << " fwd l" << L;
    EXPECT_EQ(Info.isJoin(L), Fwd.size() >= 2) << Ctx << " join l" << L;
    for (size_t I = 0; I < Fwd.size(); ++I)
      EXPECT_EQ(Info.fwdIndexOf(G, Fwd[I]), I + 1) << Ctx << " e" << Fwd[I];
  }
  for (const auto &[Id, E] : G.edges()) {
    if (!O.Reach[E.Src] || O.isBack(E)) {
      EXPECT_EQ(Info.fwdIndexOf(G, Id), 0u) << Ctx << " e" << Id;
    }
  }
}

void checkGenerated(unsigned PctAssert) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    WorkloadOptions Opts;
    Opts.Seed = Seed;
    Opts.PctAssertStmt = PctAssert;
    WorkloadGenerator Gen(Opts);
    Program P = Gen.makeInitialProgram();
    const Cfg &G = P.find("main")->Body;
    for (int Edit = 1; Edit <= 100; ++Edit) {
      Gen.applyRandomEdit(P);
      if (Edit % 5 != 0)
        continue;
      std::string Ctx = "seed " + std::to_string(Seed) + " edit " +
                        std::to_string(Edit);
      expectMatchesOracle(G, analyzeCfg(G), Ctx);
      if (testing::Test::HasFatalFailure())
        return;
    }
  }
}

TEST(CfgAnalysisOracle, GeneratedProgramsDefaultMix) { checkGenerated(0); }

TEST(CfgAnalysisOracle, GeneratedProgramsAssertMix) { checkGenerated(12); }

TEST(CfgAnalysisOracle, MultipleBackEdgesIntoOneHeadAreRejected) {
  // entry → H, H → A → H and H → B → H: two latches into one head.
  Cfg G;
  Loc H = G.addLoc(), A = G.addLoc(), B = G.addLoc();
  G.addEdge(G.entry(), H, Stmt::mkSkip());
  G.addEdge(H, A, Stmt::mkSkip());
  G.addEdge(H, B, Stmt::mkSkip());
  G.addEdge(A, H, Stmt::mkSkip());
  G.addEdge(B, H, Stmt::mkSkip());
  G.addEdge(H, G.exit(), Stmt::mkSkip());
  CfgInfo Info = analyzeCfg(G);
  EXPECT_EQ(Info.Error, "multiple back edges into location l" +
                            std::to_string(H) +
                            " (unsupported; merge them with a structured "
                            "loop)");
  expectBaseFacts(G, Info, Oracle(G), "multiple back edges");
}

TEST(CfgAnalysisOracle, IrreducibleTwoEntryCycleIsRejected) {
  Cfg G;
  Loc A = G.addLoc(), B = G.addLoc();
  G.addEdge(G.entry(), A, Stmt::mkSkip());
  G.addEdge(G.entry(), B, Stmt::mkSkip());
  G.addEdge(A, B, Stmt::mkSkip());
  G.addEdge(B, A, Stmt::mkSkip());
  G.addEdge(A, G.exit(), Stmt::mkSkip());
  CfgInfo Info = analyzeCfg(G);
  EXPECT_EQ(Info.Error, "irreducible control flow: a cycle remains after "
                        "removing back edges");
  expectBaseFacts(G, Info, Oracle(G), "irreducible");
}

TEST(CfgAnalysisOracle, MultipleBackEdgesTakePrecedenceOverIrreducibility) {
  // A two-entry cycle X ↔ Y ahead of a head with two latches.
  Cfg G;
  Loc X = G.addLoc(), Y = G.addLoc(), H = G.addLoc(), A = G.addLoc(),
      B = G.addLoc();
  G.addEdge(G.entry(), X, Stmt::mkSkip());
  G.addEdge(G.entry(), Y, Stmt::mkSkip());
  G.addEdge(X, Y, Stmt::mkSkip());
  G.addEdge(Y, X, Stmt::mkSkip());
  G.addEdge(X, H, Stmt::mkSkip());
  G.addEdge(H, A, Stmt::mkSkip());
  G.addEdge(H, B, Stmt::mkSkip());
  G.addEdge(A, H, Stmt::mkSkip());
  G.addEdge(B, H, Stmt::mkSkip());
  G.addEdge(H, G.exit(), Stmt::mkSkip());
  CfgInfo Info = analyzeCfg(G);
  EXPECT_EQ(Info.Error, "multiple back edges into location l" +
                            std::to_string(H) +
                            " (unsupported; merge them with a structured "
                            "loop)");
}

TEST(CfgAnalysisOracle, SelfLoopIsALoopOfOneLocation) {
  Cfg G;
  Loc A = G.addLoc();
  G.addEdge(G.entry(), A, Stmt::mkSkip());
  EdgeId Self = G.addEdge(A, A, Stmt::mkSkip());
  G.addEdge(A, G.exit(), Stmt::mkSkip());
  CfgInfo Info = analyzeCfg(G);
  expectMatchesOracle(G, Info, "self-loop");
  EXPECT_EQ(Info.backEdgeOf(A), Self);
  EXPECT_EQ(locVector(Info.loopBody(A)), std::vector<Loc>{A});
  EXPECT_EQ(locVector(Info.loopNest(A)), std::vector<Loc>{A});
  EXPECT_FALSE(Info.isJoin(A));
}

TEST(CfgAnalysisOracle, UnreachableCodeContributesNoFacts) {
  // A loop H ⇄ A, and a cycle U ⇄ V that no path from the entry reaches.
  // V's edges into the loop body and into the exit are no forward
  // in-edges, U ⇄ V is no loop, and neither joins H's body.
  Cfg G;
  Loc H = G.addLoc(), A = G.addLoc(), U = G.addLoc(), V = G.addLoc();
  G.addEdge(G.entry(), H, Stmt::mkSkip());
  G.addEdge(H, A, Stmt::mkSkip());
  G.addEdge(A, H, Stmt::mkSkip());
  G.addEdge(H, G.exit(), Stmt::mkSkip());
  G.addEdge(U, V, Stmt::mkSkip());
  G.addEdge(V, U, Stmt::mkSkip());
  G.addEdge(V, A, Stmt::mkSkip());
  G.addEdge(V, G.exit(), Stmt::mkSkip());
  CfgInfo Info = analyzeCfg(G);
  expectMatchesOracle(G, Info, "unreachable code");
  EXPECT_FALSE(Info.reachable(U));
  EXPECT_FALSE(Info.reachable(V));
  EXPECT_EQ(locVector(Info.loopHeads()), std::vector<Loc>{H});
  EXPECT_EQ(locVector(Info.loopBody(H)), (std::vector<Loc>{H, A}));
  EXPECT_EQ(Info.fwdEdgesTo(A).size(), 1u);
  EXPECT_EQ(Info.fwdEdgesTo(G.exit()).size(), 1u);
  EXPECT_FALSE(Info.dominates(U, V));
}

TEST(CfgAnalysisOracle, RemovedHighestIdEdgeStaysInTheIdSpace) {
  // The highest id is the loop's only back edge; removing it leaves a
  // tombstone at the end of the id space and no loop.
  Cfg G;
  Loc H = G.addLoc(), A = G.addLoc();
  G.addEdge(G.entry(), H, Stmt::mkSkip());
  G.addEdge(H, A, Stmt::mkSkip());
  G.addEdge(H, G.exit(), Stmt::mkSkip());
  EdgeId Back = G.addEdge(A, H, Stmt::mkSkip());
  expectMatchesOracle(G, analyzeCfg(G), "before removal");
  ASSERT_TRUE(G.removeEdge(Back));
  ASSERT_EQ(G.numEdgeIds(), Back + 1);
  CfgInfo Info = analyzeCfg(G);
  expectMatchesOracle(G, Info, "after removal");
  EXPECT_EQ(Info.edgeSrc(Back), InvalidLoc);
  EXPECT_FALSE(Info.isBackEdge(Back));
  EXPECT_EQ(Info.fwdIndexOf(G, Back), 0u);
  EXPECT_FALSE(Info.isLoopHead(H));
  EXPECT_TRUE(Info.predEdges(H).size() == 1);
}

//===----------------------------------------------------------------------===//
// Snapshot cache (Cfg::infoShared)
//===----------------------------------------------------------------------===//

/// Every fact of \p Info as text, to compare a snapshot across edits.
std::string render(const CfgInfo &Info, EdgeId NumEdgeIds) {
  std::ostringstream OS;
  OS << Info.Error << "\nrpo";
  for (Loc L : Info.Rpo)
    OS << ' ' << L;
  for (Loc L = 0; L < Info.numLocs(); ++L) {
    OS << "\nl" << L << ' ' << Info.reachable(L) << " back "
       << Info.backEdgeOf(L) << " nest";
    for (Loc H : Info.loopNest(L))
      OS << ' ' << H;
    OS << " body";
    for (Loc B : Info.loopBody(L))
      OS << ' ' << B;
    OS << " fwd";
    for (EdgeId Id : Info.fwdEdgesTo(L))
      OS << ' ' << Id;
    OS << " succ";
    for (EdgeId Id : Info.succEdges(L))
      OS << ' ' << Id;
    OS << " pred";
    for (EdgeId Id : Info.predEdges(L))
      OS << ' ' << Id;
    OS << " dom";
    for (Loc B = 0; B < Info.numLocs(); ++B)
      OS << Info.dominates(L, B);
  }
  for (EdgeId Id = 0; Id < NumEdgeIds; ++Id)
    OS << "\ne" << Id << ' ' << Info.edgeSrc(Id) << ' '
       << Info.isBackEdge(Id);
  return OS.str();
}

Program loopProgram() {
  LowerResult R = frontend(R"(
    function main(n) {
      var i = 0;
      while (i < n) {
        if (i > 2) { i = i + 2; } else { i = i + 1; }
      }
      return i;
    })");
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Prog);
}

TEST(CfgInfoCache, StatementEditsKeepTheSnapshot) {
  Program P = loopProgram();
  Cfg &G = P.find("main")->Body;
  // The second round derives after statement edits have moved version()
  // away from structuralVersion().
  for (int Round = 0; Round < 2; ++Round) {
    std::shared_ptr<const CfgInfo> Before = G.infoShared();
    for (const auto &[Id, E] : G.edges()) {
      ASSERT_TRUE(replaceEdgeStmt(G, Id, Stmt::mkSkip()));
      EXPECT_EQ(G.infoShared(), Before)
          << "round " << Round << ": replaceStmt on e" << Id;
    }
    EXPECT_EQ(&G.info(), Before.get());
    G.addLoc();
  }
}

TEST(CfgInfoCache, EveryShapeMutationYieldsANewSnapshot) {
  Program P = loopProgram();
  Cfg &G = P.find("main")->Body;
  const Loc Head = G.info().loopHeads().front();
  std::vector<std::pair<std::string, std::function<void()>>> Mutations = {
      {"addLoc", [&] { G.addLoc(); }},
      {"addEdge", [&] { G.addEdge(G.entry(), G.exit(), Stmt::mkSkip()); }},
      {"redirectSrc",
       [&] { G.redirectSrc(G.numEdgeIds() - 1, Head); }},
      {"redirectDst",
       [&] { G.redirectDst(G.numEdgeIds() - 1, G.entry()); }},
      {"removeEdge", [&] { G.removeEdge(G.numEdgeIds() - 1); }},
      {"insertStmtAt",
       [&] { insertStmtAt(G, G.entry(), Stmt::mkSkip()); }},
      {"insertIfAt",
       [&] {
         insertIfAt(G, Head, Expr::mkVar("n"), Stmt::mkSkip(),
                    Stmt::mkSkip());
       }},
      {"insertWhileAt",
       [&] { insertWhileAt(G, G.entry(), Expr::mkVar("n"), Stmt::mkSkip()); }},
  };
  for (auto &[What, Mutate] : Mutations) {
    std::shared_ptr<const CfgInfo> Before = G.infoShared();
    uint64_t Version = G.structuralVersion();
    Mutate();
    EXPECT_NE(G.structuralVersion(), Version) << What;
    std::shared_ptr<const CfgInfo> After = G.infoShared();
    EXPECT_NE(After, Before) << What;
    EXPECT_EQ(G.infoShared(), After) << What << ": a second read re-derived";
    EXPECT_EQ(After->numLocs(), G.numLocs()) << What;
  }
}

TEST(CfgInfoCache, PinnedSnapshotIsUnchangedByLaterEdits) {
  WorkloadOptions Opts;
  Opts.Seed = 17;
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  for (int I = 0; I < 30; ++I)
    Gen.applyRandomEdit(P);
  Cfg &G = P.find("main")->Body;
  std::shared_ptr<const CfgInfo> Pinned = G.infoShared();
  Cfg Copy = G; // the pre-edit shape, for a fresh derivation
  const EdgeId Ids = G.numEdgeIds();
  const std::string Text = render(*Pinned, Ids);
  for (int I = 0; I < 30; ++I) {
    Gen.applyRandomEdit(P);
    (void)G.info(); // re-derive, replacing the cached snapshot
    EdgeId Some = static_cast<EdgeId>(I) % G.numEdgeIds();
    if (G.findEdge(Some))
      replaceEdgeStmt(G, Some, Stmt::mkSkip());
  }
  EXPECT_NE(G.infoShared(), Pinned);
  EXPECT_EQ(render(*Pinned, Ids), Text);
  EXPECT_EQ(render(analyzeCfg(Copy), Ids), Text);
}

/// The ide_recheck operation: a random edit (12% asserts), then rebuild()
/// or, for a statement insertion, applyInsertedStatement, then an
/// incremental re-check. The graph's cache holds the DAIG's snapshot when
/// the generator samples and splices, so the edit derives nothing; the
/// DAIG then adopts the one post-edit snapshot the graph caches.
TEST(CfgInfoCache, GeneratorAndDaigShareOneSnapshotPerEdit) {
  for (uint64_t Seed : {42u, 9001u}) {
    WorkloadOptions Opts;
    Opts.Seed = Seed;
    Opts.PctAssertStmt = 12;
    WorkloadGenerator Gen(Opts);
    Program P = Gen.makeInitialProgram();
    Function *Main = P.find("main");
    Cfg &G = Main->Body;
    Statistics Stats;
    Daig<IntervalDomain> D(&G, IntervalDomain::initialEntry(Main->Params),
                           &Stats);
    IncrementalChecker<IntervalDomain> Checker(D, G, &Stats);
    Checker.recheck();
    for (int I = 0; I < 100; ++I) {
      std::shared_ptr<const CfgInfo> Before = G.infoShared();
      ASSERT_EQ(Before.get(), &D.info()) << "seed " << Seed << " edit " << I;
      EditRecord Rec = Gen.applyRandomEdit(P);
      // Holders of the pre-edit snapshot: this test, the DAIG and the
      // graph's cache. Had the sampling or the splice probe re-derived, the
      // cache would hold another snapshot.
      EXPECT_EQ(Before.use_count(), 3) << "seed " << Seed << " edit " << I;
      EXPECT_EQ(&D.info(), Before.get()) << "the DAIG keeps its pin";
      if (Rec.Kind == EditKind::InsertStmt)
        D.applyInsertedStatement(Rec.At, Rec.Splice);
      else
        D.rebuild();
      std::shared_ptr<const CfgInfo> After = G.infoShared();
      EXPECT_NE(After, Before);
      EXPECT_EQ(&D.info(), After.get()) << "seed " << Seed << " edit " << I;
      EXPECT_EQ(Before.use_count(), 1) << "the pre-edit snapshot is released";
      Checker.recheck();
      EXPECT_EQ(G.infoShared(), After) << "the re-check derives nothing";
    }
  }
}

} // namespace
