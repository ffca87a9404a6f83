//===-- tests/frontend_test.cpp - Lexer, parser, lowering, CFG tests ------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the language substrate: tokenization, parsing (including
/// error reporting), AST→CFG lowering (assume-edge decomposition per Fig. 2),
/// CFG structural analysis (dominators, back edges, natural loops, join
/// points, reducibility), structured edits, and the DAIG name algebra.
///
//===----------------------------------------------------------------------===//

#include "cfg/cfg_analysis.h"
#include "cfg/edits.h"
#include "cfg/lowering.h"
#include "daig/cell_key.h"
#include "lang/lexer.h"
#include "support/rng.h"
#include "lang/parser.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, KeywordsVsIdentifiers) {
  auto Toks = tokenize("function fn while whilex if iffy");
  ASSERT_GE(Toks.size(), 7u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwFunction);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Ident);
  EXPECT_EQ(Toks[2].Kind, TokenKind::KwWhile);
  EXPECT_EQ(Toks[3].Kind, TokenKind::Ident);
  EXPECT_EQ(Toks[4].Kind, TokenKind::KwIf);
  EXPECT_EQ(Toks[5].Kind, TokenKind::Ident);
}

TEST(Lexer, MultiCharOperators) {
  auto Toks = tokenize("<= >= == != && || < > = !");
  std::vector<TokenKind> Expected = {
      TokenKind::Le, TokenKind::Ge, TokenKind::EqEq, TokenKind::NotEq,
      TokenKind::AndAnd, TokenKind::OrOr, TokenKind::Lt, TokenKind::Gt,
      TokenKind::Assign, TokenKind::Not, TokenKind::Eof};
  ASSERT_EQ(Toks.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Toks[I].Kind, Expected[I]) << "token " << I;
}

TEST(Lexer, CommentsAndPositions) {
  auto Toks = tokenize("a // comment\n/* block\ncomment */ b");
  ASSERT_GE(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[1].Text, "b");
  EXPECT_EQ(Toks[1].Line, 3);
}

TEST(Lexer, UnterminatedBlockCommentIsError) {
  auto Toks = tokenize("a /* never closed");
  EXPECT_EQ(Toks.back().Kind, TokenKind::Error);
}

TEST(Lexer, UnknownCharacterIsError) {
  auto Toks = tokenize("a $ b");
  EXPECT_EQ(Toks.back().Kind, TokenKind::Error);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, RoundTripsThroughPrinter) {
  const char *Src = R"(
function f(a, b) {
  var x = a + b * 2;
  if (x > 10 && a < b) {
    x = x - 1;
  } else {
    while (x < 0) {
      x = x + a;
    }
  }
  return x;
}
)";
  ParseResult P1 = parseProgram(Src);
  ASSERT_TRUE(P1.ok()) << P1.Error;
  std::string Printed = astToString(P1.Program);
  ParseResult P2 = parseProgram(Printed);
  ASSERT_TRUE(P2.ok()) << P2.Error << "\n" << Printed;
  EXPECT_EQ(Printed, astToString(P2.Program)) << "printer must be stable";
}

TEST(Parser, PrecedenceIsConventional) {
  ParseResult P = parseSnippet("var x = 1 + 2 * 3 - 4 / 2; return x;");
  ASSERT_TRUE(P.ok()) << P.Error;
  // Evaluate via constant propagation through lowering.
  Function F = lowerFunction(P.Program.Functions[0]);
  CfgInfo Info = analyzeCfg(F.Body);
  ASSERT_TRUE(Info.valid());
  // 1 + 6 - 2 = 5.
  bool Found = false;
  for (const auto &[Id, E] : F.Body.edges())
    if (E.Label.toString() == "x = 1 + 2 * 3 - 4 / 2")
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Parser, ReportsLocatedErrors) {
  ParseResult P = parseProgram("function f() { var = 3; }");
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("line 1"), std::string::npos) << P.Error;
}

TEST(Parser, RejectsNonNextFieldWrites) {
  ParseResult P = parseProgram("function f(x) { x.prev = null; return x; }");
  EXPECT_FALSE(P.ok());
}

TEST(Parser, ParsesCallsArraysAndHeapOps) {
  ParseResult P = parseProgram(R"(
function g(a) { return a; }
function f() {
  var n = new List;
  n.next = null;
  var a = [1, 2, 3];
  a[0] = a[1] + a.length;
  var r = g(a);
  print("done");
  return r;
}
)");
  ASSERT_TRUE(P.ok()) << P.Error;
}

TEST(Parser, ElseIfChains) {
  ParseResult P = parseSnippet(R"(
    var x = 0;
    if (x > 0) { x = 1; } else if (x < 0) { x = 2; } else { x = 3; }
    return x;
  )");
  ASSERT_TRUE(P.ok()) << P.Error;
}

//===----------------------------------------------------------------------===//
// Lowering and CFG structure
//===----------------------------------------------------------------------===//

TEST(Lowering, IfProducesAssumePair) {
  Function F = mustLowerFn(
      "function f(c) { var x = 0; if (c > 0) { x = 1; } return x; }", "f");
  unsigned Assumes = 0;
  for (const auto &[Id, E] : F.Body.edges())
    if (E.Label.Kind == StmtKind::Assume)
      ++Assumes;
  EXPECT_EQ(Assumes, 2u) << "guard and its negation (Fig. 2)";
}

TEST(Lowering, WhileProducesSingleBackEdge) {
  Function F = mustLowerFn(
      "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }",
      "f");
  CfgInfo Info = analyzeCfg(F.Body);
  ASSERT_TRUE(Info.valid()) << Info.Error;
  EXPECT_EQ(backEdges(F.Body, Info).size(), 1u);
  EXPECT_EQ(Info.loopHeads().size(), 1u);
}

TEST(Lowering, BranchingLoopBodyStillSingleBackEdge) {
  Function F = mustLowerFn(R"(
    function f(n) {
      var i = 0;
      while (i < n) {
        if (i > 2) { i = i + 2; } else { i = i + 1; }
      }
      return i;
    })",
                           "f");
  CfgInfo Info = analyzeCfg(F.Body);
  ASSERT_TRUE(Info.valid()) << Info.Error;
  EXPECT_EQ(backEdges(F.Body, Info).size(), 1u)
      << "the latch must merge branched body exits";
}

TEST(Lowering, DeadCodeAfterReturnIsDropped) {
  Function F = mustLowerFn(
      "function f() { return 1; var x = 2; return x; }", "f");
  for (const auto &[Id, E] : F.Body.edges())
    EXPECT_NE(E.Label.toString(), "x = 2");
}

TEST(CfgAnalysis, DominatorsAndJoins) {
  Function F = mustLowerFn(R"(
    function f(c) {
      var x = 0;
      if (c > 0) { x = 1; } else { x = 2; }
      return x;
    })",
                           "f");
  CfgInfo Info = analyzeCfg(F.Body);
  ASSERT_TRUE(Info.valid());
  std::vector<Loc> Joins = joinPoints(Info);
  ASSERT_EQ(Joins.size(), 1u);
  Loc Join = Joins.front();
  EXPECT_TRUE(Info.dominates(F.Body.entry(), Join));
  EXPECT_FALSE(Info.dominates(Join, F.Body.entry()));
  EXPECT_EQ(Info.fwdEdgesTo(Join).size(), 2u);
}

TEST(CfgAnalysis, NestedLoopNesting) {
  Function F = mustLowerFn(R"(
    function f(n) {
      var i = 0;
      while (i < n) {
        var j = 0;
        while (j < i) { j = j + 1; }
        i = i + 1;
      }
      return i;
    })",
                           "f");
  CfgInfo Info = analyzeCfg(F.Body);
  ASSERT_TRUE(Info.valid());
  ASSERT_EQ(Info.loopHeads().size(), 2u);
  // One loop nests inside the other.
  std::span<const Loc> L1 = Info.loopBody(Info.loopHeads()[0]);
  std::span<const Loc> L2 = Info.loopBody(Info.loopHeads()[1]);
  bool Nested = std::includes(L1.begin(), L1.end(), L2.begin(), L2.end()) ||
                std::includes(L2.begin(), L2.end(), L1.begin(), L1.end());
  EXPECT_TRUE(Nested);
  // The inner head has nest depth 2.
  bool FoundDepth2 = false;
  for (Loc Head : Info.loopHeads()) {
    if (Info.loopDepth(Head) == 2)
      FoundDepth2 = true;
  }
  EXPECT_TRUE(FoundDepth2);
}

TEST(CfgAnalysis, IrreducibleGraphRejected) {
  Cfg G;
  Loc A = G.addLoc(), B = G.addLoc();
  G.addEdge(G.entry(), A, Stmt::mkSkip());
  G.addEdge(G.entry(), B, Stmt::mkSkip());
  G.addEdge(A, B, Stmt::mkSkip());
  G.addEdge(B, A, Stmt::mkSkip()); // two-entry cycle: irreducible
  G.addEdge(A, G.exit(), Stmt::mkSkip());
  CfgInfo Info = analyzeCfg(G);
  EXPECT_FALSE(Info.valid());
  EXPECT_NE(Info.Error.find("irreducible"), std::string::npos);
}

TEST(CfgEdits, InsertionsPreserveWellFormedness) {
  Function F = mustLowerFn(R"(
    function f(n) {
      var i = 0;
      while (i < n) { i = i + 1; }
      if (i > 3) { i = 3; } else { i = 0; }
      return i;
    })",
                           "f");
  Rng R(99);
  for (int Step = 0; Step < 40; ++Step) {
    CfgInfo Info = analyzeCfg(F.Body);
    ASSERT_TRUE(Info.valid()) << "step " << Step << ": " << Info.Error;
    std::vector<Loc> Cands;
    for (Loc L = 0; L < F.Body.numLocs(); ++L)
      if (Info.reachable(L) && L != F.Body.exit())
        Cands.push_back(L);
    Loc At = Cands[R.below(Cands.size())];
    switch (R.below(3)) {
    case 0:
      insertStmtAt(F.Body, At, Stmt::mkAssign("i", Expr::mkInt(1)));
      break;
    case 1:
      insertIfAt(F.Body, At,
                 Expr::mkBinary(BinaryOp::Gt, Expr::mkVar("i"),
                                Expr::mkInt(0)),
                 Stmt::mkSkip(), Stmt::mkSkip());
      break;
    default:
      insertWhileAt(F.Body, At,
                    Expr::mkBinary(BinaryOp::Lt, Expr::mkVar("i"),
                                   Expr::mkInt(5)),
                    Stmt::mkAssign("i", Expr::mkBinary(BinaryOp::Add,
                                                       Expr::mkVar("i"),
                                                       Expr::mkInt(1))));
      break;
    }
  }
  CfgInfo Final = analyzeCfg(F.Body);
  EXPECT_TRUE(Final.valid()) << Final.Error;
}

//===----------------------------------------------------------------------===//
// Cell keys (the name algebra of Fig. 6)
//===----------------------------------------------------------------------===//

TEST(NameAlgebra, StructuralEqualityAndHash) {
  CellKey A = CellKey::stmt(3, 4);
  CellKey B = CellKey::stmt(3, 4);
  CellKey C = CellKey::stmt(4, 3);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_NE(A, C);
  CellKey I1 = CellKey::state(3).iterate(0);
  CellKey I2 = CellKey::state(3).iterate(1);
  EXPECT_NE(I1, I2);
  EXPECT_NE(I1, CellKey::state(3)) << "iterate keys differ from plain keys";
}

TEST(NameAlgebra, OrderingIsTotalAndConsistent) {
  std::vector<CellKey> Keys = {CellKey::state(1), CellKey::state(2),
                               CellKey::state(2).preJoin(1),
                               CellKey::stmt(1, 2),
                               CellKey::state(1).iterate(3)};
  std::sort(Keys.begin(), Keys.end());
  for (size_t I = 0; I + 1 < Keys.size(); ++I) {
    EXPECT_TRUE(Keys[I] < Keys[I + 1] || Keys[I] == Keys[I + 1]);
    EXPECT_FALSE(Keys[I + 1] < Keys[I]);
  }
}

TEST(NameAlgebra, Printing) {
  EXPECT_EQ(CellKey::stmt(3, 4, 2).toString(), "2.l3.l4");
  EXPECT_EQ(CellKey::state(7).iterate(1).toString(), "l7(1)");
  EXPECT_EQ(CellKey::state(7).preWiden(0).toString(), "l7(0).l7(1)");
}

TEST(StmtLanguage, EqualityAndHashing) {
  Stmt A = Stmt::mkAssign("x", Expr::mkBinary(BinaryOp::Add,
                                              Expr::mkVar("y"),
                                              Expr::mkInt(1)));
  Stmt B = Stmt::mkAssign("x", Expr::mkBinary(BinaryOp::Add,
                                              Expr::mkVar("y"),
                                              Expr::mkInt(1)));
  Stmt C = Stmt::mkAssign("x", Expr::mkBinary(BinaryOp::Add,
                                              Expr::mkVar("y"),
                                              Expr::mkInt(2)));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_FALSE(A == C);
  EXPECT_NE(A.hash(), C.hash());
}

TEST(StmtLanguage, NegatePushesThroughComparisons) {
  ExprPtr E = Expr::mkBinary(BinaryOp::Lt, Expr::mkVar("x"), Expr::mkInt(3));
  EXPECT_EQ(exprToString(negate(E)), "x >= 3");
  ExprPtr And = Expr::mkBinary(BinaryOp::And, E, E);
  EXPECT_EQ(exprToString(negate(And)), "x >= 3 || x >= 3");
  EXPECT_EQ(exprToString(negate(negate(E))), exprToString(E));
}

} // namespace
