//===-- workload/generator.cpp - Synthetic edit workloads -----------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/generator.h"

#include "cfg/lowering.h"
#include "lang/parser.h"

#include <cassert>

using namespace dai;

WorkloadGenerator::WorkloadGenerator(WorkloadOptions Options)
    : Opts(Options), R(Options.Seed) {
  assert(Opts.NumVars > 0 && "need at least one variable");
  for (unsigned I = 0; I < Opts.NumVars; ++I)
    Vars.push_back("v" + std::to_string(I));
  for (unsigned I = 0; I < Opts.HelperCount; ++I)
    Helpers.push_back("h" + std::to_string(I));
}

const std::string &WorkloadGenerator::randomVar() {
  return Vars[R.below(Vars.size())];
}

ExprPtr WorkloadGenerator::randomArithExpr(unsigned Depth) {
  // Leaning toward octagon-representable forms (±x ± y + c) with occasional
  // nonlinear subterms, mirroring "generated probabilistically from their
  // respective grammars".
  if (Depth == 0 || R.percent(40)) {
    if (R.percent(50))
      return Expr::mkVar(randomVar());
    return Expr::mkInt(R.range(-10, 10));
  }
  unsigned Pick = static_cast<unsigned>(R.below(100));
  if (Pick < 40)
    return Expr::mkBinary(BinaryOp::Add, randomArithExpr(Depth - 1),
                          randomArithExpr(Depth - 1));
  if (Pick < 70)
    return Expr::mkBinary(BinaryOp::Sub, randomArithExpr(Depth - 1),
                          randomArithExpr(Depth - 1));
  if (Pick < 80)
    return Expr::mkBinary(BinaryOp::Mul, Expr::mkInt(R.range(-3, 3)),
                          randomArithExpr(Depth - 1));
  if (Pick < 90)
    return Expr::mkUnary(UnaryOp::Neg, randomArithExpr(Depth - 1));
  return Expr::mkBinary(BinaryOp::Mul, randomArithExpr(Depth - 1),
                        randomArithExpr(Depth - 1));
}

ExprPtr WorkloadGenerator::randomCondition() {
  BinaryOp Cmp;
  switch (R.below(6)) {
  case 0: Cmp = BinaryOp::Lt; break;
  case 1: Cmp = BinaryOp::Le; break;
  case 2: Cmp = BinaryOp::Gt; break;
  case 3: Cmp = BinaryOp::Ge; break;
  case 4: Cmp = BinaryOp::Eq; break;
  default: Cmp = BinaryOp::Ne; break;
  }
  ExprPtr Lhs = Expr::mkVar(randomVar());
  ExprPtr Rhs = R.percent(60) ? Expr::mkInt(R.range(-20, 20))
                              : Expr::mkVar(randomVar());
  ExprPtr Atom = Expr::mkBinary(Cmp, Lhs, Rhs);
  if (R.percent(15))
    return Expr::mkBinary(R.percent(50) ? BinaryOp::And : BinaryOp::Or, Atom,
                          Expr::mkBinary(BinaryOp::Lt,
                                         Expr::mkVar(randomVar()),
                                         Expr::mkInt(R.range(-20, 20))));
  return Atom;
}

Stmt WorkloadGenerator::randomStmt() {
  unsigned Pick = static_cast<unsigned>(R.below(100));
  // Assert first so enabling it shifts (not reshuffles) the other bands;
  // at the default PctAssertStmt=0 the draw sequence is unchanged.
  if (Pick < Opts.PctAssertStmt)
    return Stmt::mkAssert(randomCondition());
  Pick -= Opts.PctAssertStmt;
  if (Pick < Opts.PctCallStmt && !Helpers.empty()) {
    std::vector<ExprPtr> Args = {Expr::mkVar(randomVar())};
    return Stmt::mkCall(randomVar(), Helpers[R.below(Helpers.size())],
                        std::move(Args));
  }
  if (Pick < Opts.PctCallStmt + Opts.PctArrayStmt) {
    if (R.percent(40)) {
      // Fresh small array literal.
      std::vector<ExprPtr> Elems;
      unsigned N = static_cast<unsigned>(R.range(1, 4));
      for (unsigned I = 0; I < N; ++I)
        Elems.push_back(Expr::mkInt(R.range(-10, 10)));
      return Stmt::mkAssign(randomVar(), Expr::mkArray(std::move(Elems)));
    }
    if (R.percent(50))
      return Stmt::mkArrayWrite(randomVar(), randomArithExpr(1),
                                randomArithExpr(1));
    return Stmt::mkAssign(randomVar(),
                          Expr::mkIndex(Expr::mkVar(randomVar()),
                                        randomArithExpr(1)));
  }
  return Stmt::mkAssign(randomVar(), randomArithExpr(2));
}

Program WorkloadGenerator::makeInitialProgram() {
  // Helpers have small, loop-free numeric bodies; main starts (nearly)
  // empty, matching the paper's "initially-empty program".
  std::string Src;
  for (unsigned I = 0; I < Opts.HelperCount; ++I) {
    Src += "function h" + std::to_string(I) + "(x) {\n";
    switch (I % 3) {
    case 0:
      Src += "  return x + " + std::to_string(I + 1) + ";\n";
      break;
    case 1:
      Src += "  var y = x * 2;\n  if (y > 10) { y = 10; }\n  return y;\n";
      break;
    default:
      Src += "  var y = 0;\n  if (x > 0) { y = x; } else { y = 0 - x; }\n"
             "  return y;\n";
      break;
    }
    Src += "}\n";
  }
  Src += "function main() {\n  var v0 = 0;\n  return v0;\n}\n";
  LowerResult LR = frontend(Src);
  assert(LR.ok() && "initial workload program must lower");
  return std::move(LR.Prog);
}

Loc WorkloadGenerator::sampleEditLocation(const Cfg &G) {
  const CfgInfo &Info = G.info();
  std::vector<Loc> Candidates;
  for (Loc L = 0; L < G.numLocs(); ++L)
    if (Info.reachable(L) && L != G.exit())
      Candidates.push_back(L);
  assert(!Candidates.empty() && "no insertable location");
  return Candidates[R.below(Candidates.size())];
}

EditRecord WorkloadGenerator::applyRandomEdit(Program &P) {
  Function *Main = P.find("main");
  assert(Main && "workload programs have a main");
  Cfg &G = Main->Body;
  EditRecord Rec;
  Rec.At = sampleEditLocation(G);
  unsigned Pick = static_cast<unsigned>(R.below(100));
  if (Pick < Opts.PctStmt) {
    Rec.Kind = EditKind::InsertStmt;
    Rec.Splice = insertStmtAt(G, Rec.At, randomStmt());
  } else if (Pick < Opts.PctStmt + Opts.PctIf) {
    Rec.Kind = EditKind::InsertIf;
    Rec.Splice = insertIfAt(G, Rec.At, randomCondition(), randomStmt(),
                            randomStmt());
  } else {
    Rec.Kind = EditKind::InsertWhile;
    // A bounded counting loop: guard `v < c` with a body that advances v,
    // so octagon analysis converges after a demanded unrolling or two.
    std::string V = randomVar();
    ExprPtr Guard = Expr::mkBinary(BinaryOp::Lt, Expr::mkVar(V),
                                   Expr::mkInt(R.range(1, 30)));
    Stmt Body = Stmt::mkAssign(
        V, Expr::mkBinary(BinaryOp::Add, Expr::mkVar(V),
                          Expr::mkInt(R.range(1, 3))));
    Rec.Splice = insertWhileAt(G, Rec.At, Guard, Body);
  }
  return Rec;
}

std::vector<Loc> WorkloadGenerator::sampleQueryLocations(const Program &P,
                                                         unsigned N) {
  const Function *Main = P.find("main");
  assert(Main && "workload programs have a main");
  const CfgInfo &Info = Main->Body.info();
  std::vector<Loc> Reachable;
  for (Loc L = 0; L < Main->Body.numLocs(); ++L)
    if (Info.reachable(L))
      Reachable.push_back(L);
  std::vector<Loc> Out;
  for (unsigned I = 0; I < N && !Reachable.empty(); ++I)
    Out.push_back(Reachable[R.below(Reachable.size())]);
  return Out;
}
