//===-- tests/interval_domain_test.cpp - Interval domain unit tests -------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Directed unit tests for the interval domain beyond the randomized lattice
/// properties: assume-refinement (comparisons, conjunction, disjunction,
/// negation, length guards), array abstraction (literals, reads, weak
/// writes), the checker's array-bounds verdicts on interval pre-states, and
/// the interprocedural hooks.
///
//===----------------------------------------------------------------------===//

#include "domain/interval.h"

#include "analysis/checker.h"
#include "cfg/program.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dai;

namespace {

ExprPtr var(const char *N) { return Expr::mkVar(N); }
ExprPtr lit(int64_t V) { return Expr::mkInt(V); }
ExprPtr bin(BinaryOp Op, ExprPtr L, ExprPtr R) {
  return Expr::mkBinary(Op, std::move(L), std::move(R));
}

IntervalState stateWith(const char *Var, Interval I) {
  IntervalState S;
  S.set(Var, VarAbs::numeric(I));
  return S;
}

TEST(IntervalAssume, ComparisonRefinesBothSides) {
  IntervalState S;
  S.set("x", VarAbs::numeric(Interval::range(0, 10)));
  S.set("y", VarAbs::numeric(Interval::range(5, 20)));
  IntervalState R = IntervalDomain::assume(S, bin(BinaryOp::Lt, var("x"),
                                                  var("y")));
  EXPECT_EQ(R.get("x").Num, Interval::range(0, 10)); // x < 20 adds nothing
  EXPECT_EQ(R.get("y").Num, Interval::range(5, 20)); // y > 0 adds nothing
  R = IntervalDomain::assume(S, bin(BinaryOp::Gt, var("x"), var("y")));
  EXPECT_EQ(R.get("x").Num, Interval::range(6, 10));
  EXPECT_EQ(R.get("y").Num, Interval::range(5, 9));
}

TEST(IntervalAssume, EqualityMeets) {
  IntervalState S = stateWith("x", Interval::range(0, 10));
  IntervalState R =
      IntervalDomain::assume(S, bin(BinaryOp::Eq, var("x"), lit(7)));
  EXPECT_EQ(R.get("x").Num, Interval::constant(7));
}

TEST(IntervalAssume, DisequalityShavesEndpoints) {
  IntervalState S = stateWith("x", Interval::range(0, 10));
  IntervalState R =
      IntervalDomain::assume(S, bin(BinaryOp::Ne, var("x"), lit(10)));
  EXPECT_EQ(R.get("x").Num, Interval::range(0, 9));
  R = IntervalDomain::assume(S, bin(BinaryOp::Ne, var("x"), lit(5)));
  EXPECT_EQ(R.get("x").Num, Interval::range(0, 10)) << "interior holes drop";
}

TEST(IntervalAssume, UnsatisfiableIsBottom) {
  IntervalState S = stateWith("x", Interval::range(0, 3));
  IntervalState R =
      IntervalDomain::assume(S, bin(BinaryOp::Gt, var("x"), lit(9)));
  EXPECT_TRUE(R.Bottom);
}

TEST(IntervalAssume, ConjunctionChains) {
  IntervalState S = stateWith("x", Interval::top());
  ExprPtr Cond = bin(BinaryOp::And, bin(BinaryOp::Ge, var("x"), lit(0)),
                     bin(BinaryOp::Lt, var("x"), lit(8)));
  IntervalState R = IntervalDomain::assume(S, Cond);
  EXPECT_EQ(R.get("x").Num, Interval::range(0, 7));
}

TEST(IntervalAssume, DisjunctionJoins) {
  IntervalState S = stateWith("x", Interval::range(-10, 10));
  ExprPtr Cond = bin(BinaryOp::Or, bin(BinaryOp::Lt, var("x"), lit(-5)),
                     bin(BinaryOp::Gt, var("x"), lit(5)));
  IntervalState R = IntervalDomain::assume(S, Cond);
  EXPECT_EQ(R.get("x").Num, Interval::range(-10, 10))
      << "join of the two branches spans the gap";
}

TEST(IntervalAssume, NegationPushes) {
  IntervalState S = stateWith("x", Interval::top());
  ExprPtr Cond = Expr::mkUnary(UnaryOp::Not,
                               bin(BinaryOp::Ge, var("x"), lit(3)));
  IntervalState R = IntervalDomain::assume(S, Cond);
  EXPECT_EQ(R.get("x").Num, Interval::atMost(2));
}

TEST(IntervalAssume, LengthGuardRefinesIndexAndLength) {
  IntervalState S;
  VarAbs A;
  A.Len = Interval::range(0, 100);
  S.set("a", A);
  S.set("i", VarAbs::numeric(Interval::atLeast(0)));
  IntervalState R = IntervalDomain::assume(
      S, bin(BinaryOp::Lt, var("i"),
             Expr::mkField(var("a"), "length")));
  EXPECT_EQ(R.get("i").Num, Interval::range(0, 99));
  // And the reverse direction: a.length > i refines the length.
  S.set("i", VarAbs::numeric(Interval::constant(9)));
  R = IntervalDomain::assume(
      S, bin(BinaryOp::Gt, Expr::mkField(var("a"), "length"), var("i")));
  EXPECT_EQ(R.get("a").Len, Interval::range(10, 100));
}

TEST(IntervalArrays, LiteralTracksLengthAndElements) {
  IntervalState S;
  Stmt Lit = Stmt::mkAssign(
      "a", Expr::mkArray({lit(3), lit(7), lit(5)}));
  IntervalState R = IntervalDomain::transfer(Lit, S);
  EXPECT_EQ(R.get("a").Len, Interval::constant(3));
  EXPECT_EQ(R.get("a").Elems, Interval::range(3, 7));
  // Reads summarize elements.
  Stmt Read = Stmt::mkAssign("x", Expr::mkIndex(var("a"), lit(1)));
  IntervalState R2 = IntervalDomain::transfer(Read, R);
  EXPECT_EQ(R2.get("x").Num, Interval::range(3, 7));
  // Writes are weak (join, not replace).
  Stmt Write = Stmt::mkArrayWrite("a", lit(0), lit(100));
  IntervalState R3 = IntervalDomain::transfer(Write, R);
  EXPECT_EQ(R3.get("a").Elems, Interval::range(3, 100));
  EXPECT_EQ(R3.get("a").Len, Interval::constant(3)) << "length is immutable";
}

/// The checker's verdicts on \p S's array-bounds obligations in pre-state
/// \p Pre, space-separated in collection order.
std::string boundsVerdicts(const IntervalState &Pre, const Stmt &S) {
  std::vector<Obligation> Obs;
  collectObligations(S, /*Edge=*/0, /*At=*/0, Obs,
                     checkMask(CheckKind::ArrayBounds));
  std::string Out;
  for (const Obligation &Ob : Obs) {
    if (!Out.empty())
      Out += ' ';
    Out += verdictName(
        evaluateObligation<IntervalDomain>(Ob, Pre, /*DegradedPre=*/false));
  }
  return Out;
}

TEST(IntervalObligations, GuardedAccessDischarges) {
  IntervalState S;
  VarAbs A;
  A.Len = Interval::constant(4);
  S.set("a", A);
  S.set("i", VarAbs::numeric(Interval::range(0, 3)));
  Stmt Read = Stmt::mkAssign("x", Expr::mkIndex(var("a"), var("i")));
  EXPECT_EQ(boundsVerdicts(S, Read), "SAFE");
  // One off the end: unproven.
  S.set("i", VarAbs::numeric(Interval::range(0, 4)));
  EXPECT_EQ(boundsVerdicts(S, Read), "WARNING");
  // Possibly negative: unproven.
  S.set("i", VarAbs::numeric(Interval::range(-1, 3)));
  EXPECT_EQ(boundsVerdicts(S, Read), "WARNING");
  // Unknown length: unproven.
  S.set("a", VarAbs::top());
  S.set("i", VarAbs::numeric(Interval::constant(0)));
  EXPECT_EQ(boundsVerdicts(S, Read), "WARNING");
}

TEST(IntervalObligations, NestedAccessesAllCounted) {
  IntervalState S;
  VarAbs A;
  A.Len = Interval::constant(4);
  A.Elems = Interval::range(0, 3);
  S.set("a", A);
  // a[a[0]] — two obligations, both dischargeable.
  Stmt Read = Stmt::mkAssign(
      "x", Expr::mkIndex(var("a"), Expr::mkIndex(var("a"), lit(0))));
  EXPECT_EQ(boundsVerdicts(S, Read), "SAFE SAFE");
}

TEST(IntervalObligations, UnreachableIsVacuouslySafe) {
  Stmt Read = Stmt::mkAssign("x", Expr::mkIndex(var("a"), lit(999)));
  EXPECT_EQ(boundsVerdicts(IntervalDomain::bottom(), Read), "UNREACHABLE");
}

TEST(IntervalInterproc, EnterCallBindsActualsIncludingArrays) {
  IntervalState Caller;
  VarAbs A;
  A.Len = Interval::constant(5);
  Caller.set("arr", A);
  Caller.set("n", VarAbs::numeric(Interval::range(1, 4)));
  Stmt Call = Stmt::mkCall("r", "f", {var("arr"), var("n")});
  IntervalState Entry =
      IntervalDomain::enterCall(Caller, Call, {"a", "count"});
  EXPECT_EQ(Entry.get("a").Len, Interval::constant(5));
  EXPECT_EQ(Entry.get("count").Num, Interval::range(1, 4));
  EXPECT_TRUE(Entry.get("arr").isTop()) << "caller locals stay out of scope";
}

TEST(IntervalInterproc, ExitCallBindsResultAndHavocsElements) {
  IntervalState Caller;
  VarAbs A;
  A.Len = Interval::constant(5);
  A.Elems = Interval::range(0, 9);
  Caller.set("arr", A);
  IntervalState CalleeExit;
  CalleeExit.set(RetVar, VarAbs::numeric(Interval::constant(42)));
  Stmt Call = Stmt::mkCall("r", "f", {var("arr")});
  IntervalState After = IntervalDomain::exitCall(Caller, CalleeExit, Call);
  EXPECT_EQ(After.get("r").Num, Interval::constant(42));
  EXPECT_TRUE(After.get("arr").Elems.isTop())
      << "the callee may write elements through the reference";
  EXPECT_EQ(After.get("arr").Len, Interval::constant(5))
      << "lengths cannot change";
}

TEST(IntervalInterproc, NonReturningCalleeMakesBottom) {
  IntervalState Caller = stateWith("x", Interval::constant(1));
  Stmt Call = Stmt::mkCall("r", "f", {});
  IntervalState After =
      IntervalDomain::exitCall(Caller, IntervalDomain::bottom(), Call);
  EXPECT_TRUE(After.Bottom);
}

TEST(IntervalEval, DivisionAndModuloConservative) {
  IntervalState S;
  S.set("x", VarAbs::numeric(Interval::range(10, 20)));
  S.set("y", VarAbs::numeric(Interval::range(2, 5)));
  VarAbs Div = IntervalDomain::eval(bin(BinaryOp::Div, var("x"), var("y")), S);
  EXPECT_TRUE(Div.Num.subsumes(Interval::range(2, 10)));
  VarAbs Mod = IntervalDomain::eval(bin(BinaryOp::Mod, var("x"), var("y")), S);
  EXPECT_TRUE(Mod.Num.subsumes(Interval::range(0, 4)));
  // Divisor straddling zero stays sound.
  S.set("y", VarAbs::numeric(Interval::range(-2, 2)));
  VarAbs Div0 =
      IntervalDomain::eval(bin(BinaryOp::Div, var("x"), var("y")), S);
  EXPECT_TRUE(Div0.Num.contains(10) && Div0.Num.contains(-10));
}

TEST(IntervalEval, BooleanOperatorsAreThreeValued) {
  IntervalState S;
  S.set("x", VarAbs::numeric(Interval::range(5, 9)));
  VarAbs True = IntervalDomain::eval(bin(BinaryOp::Gt, var("x"), lit(0)), S);
  EXPECT_EQ(True.Num, Interval::constant(1));
  VarAbs False = IntervalDomain::eval(bin(BinaryOp::Lt, var("x"), lit(0)), S);
  EXPECT_EQ(False.Num, Interval::constant(0));
  VarAbs Unknown = IntervalDomain::eval(bin(BinaryOp::Gt, var("x"), lit(7)), S);
  EXPECT_EQ(Unknown.Num, Interval::range(0, 1));
}

TEST(IntervalWiden, StabilizesUnstableBoundsOnly) {
  Interval A = Interval::range(0, 10);
  EXPECT_EQ(A.widen(Interval::range(0, 12)), Interval::atLeast(0));
  EXPECT_EQ(A.widen(Interval::range(-1, 10)), Interval::atMost(10));
  EXPECT_EQ(A.widen(Interval::range(2, 8)), A) << "shrinking is stable";
}

TEST(IntervalHash, SeparatesStatesThePlainCombineFoldConfused) {
  // Found by search: under a plain hashCombine fold over (symbol, value
  // hashes) these two states hash alike, and the memo table, which keys on
  // the hash alone, served one's transfer results for the other.
  IntervalState A, B;
  A.set(SymbolId(1), VarAbs::numeric(Interval::range(-1, 1)));
  B.set(SymbolId(2), VarAbs::numeric(Interval::range(-2, -1)));
  ASSERT_FALSE(IntervalDomain::equal(A, B));
  EXPECT_NE(IntervalDomain::hash(A), IntervalDomain::hash(B));
}

} // namespace
