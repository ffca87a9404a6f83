//===-- tests/octagon_closure_test.cpp - Incremental closure tests --------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The safety net for the octagon closure discipline: randomized property
/// tests asserting that closeIncremental() after each addConstraint yields a
/// DBM entrywise-equal to full close(), across long chains of random
/// constraints, including chains that collapse to ⊥ — plus directed cases
/// for unary constraints, ⊥ detection, and closure-counter accounting.
///
//===----------------------------------------------------------------------===//

#include "domain/octagon.h"

#include "lang/expr.h"
#include "support/rng.h"
#include "support/statistics.h"

#include <gtest/gtest.h>

using namespace dai;

namespace {

constexpr size_t npos = static_cast<size_t>(-1);

/// Entrywise comparison of two octagons over identical variable sets,
/// including ⊥/Closed agreement. Returns a human-readable mismatch.
std::string diffOctagons(const Octagon &Full, const Octagon &Incr) {
  if (Full.isBottom() != Incr.isBottom())
    return std::string("bottom mismatch: full=") +
           (Full.isBottom() ? "bot" : "nonbot") +
           " incremental=" + (Incr.isBottom() ? "bot" : "nonbot");
  if (Full.isBottom())
    return "";
  if (Full.vars() != Incr.vars())
    return "variable-set mismatch";
  if (Full.isClosed() != Incr.isClosed())
    return "closed-flag mismatch";
  size_t Dim = 2 * Full.numVars();
  for (size_t I = 0; I < Dim; ++I)
    for (size_t J = 0; J < Dim; ++J)
      if (Full.at(I, J) != Incr.at(I, J))
        return "entry (" + std::to_string(I) + "," + std::to_string(J) +
               "): full=" + std::to_string(Full.at(I, J)) +
               " incremental=" + std::to_string(Incr.at(I, J));
  return "";
}

/// A random octagonal constraint over \p NumVars variables: unary with
/// probability ~1/3, binary otherwise.
struct RandomConstraint {
  size_t X;
  bool PosX;
  size_t Y; ///< npos for unary.
  bool PosY;
  int64_t C;
};

RandomConstraint randomConstraint(Rng &R, size_t NumVars) {
  RandomConstraint RC;
  RC.X = R.below(NumVars);
  RC.PosX = R.percent(50);
  RC.PosY = R.percent(50);
  if (NumVars >= 2 && R.percent(67)) {
    do {
      RC.Y = R.below(NumVars);
    } while (RC.Y == RC.X);
  } else {
    RC.Y = npos;
  }
  RC.C = R.range(-12, 25);
  return RC;
}

Octagon freshOctagon(size_t NumVars) {
  Octagon O;
  for (size_t I = 0; I < NumVars; ++I)
    O.addVar("v" + std::to_string(I));
  return O;
}

/// The core property: starting from a closed value, adding one random
/// constraint and re-closing incrementally must agree entrywise with a full
/// Floyd–Warshall re-closure, at every step of a long random chain.
TEST(OctagonIncrementalClosure, RandomChainsMatchFullClosure) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    Rng R(Seed);
    size_t NumVars = 2 + R.below(6); // 2..7 variables
    Octagon Current = freshOctagon(NumVars);
    Current.close();
    for (unsigned Step = 0; Step < 60; ++Step) {
      RandomConstraint RC = randomConstraint(R, NumVars);
      Octagon Full = Current, Incr = Current;
      Full.addConstraint(RC.X, RC.PosX, RC.Y, RC.PosY, RC.C);
      Full.close();
      Incr.addConstraint(RC.X, RC.PosX, RC.Y, RC.PosY, RC.C);
      Incr.closeIncremental(RC.X, RC.Y);
      std::string Diff = diffOctagons(Full, Incr);
      EXPECT_EQ(Diff, "") << "seed " << Seed << " step " << Step
                          << " constraint (" << (RC.PosX ? "+" : "-") << "v"
                          << RC.X << (RC.Y == npos ? "" : (RC.PosY ? " +v" : " -v") + std::to_string(RC.Y))
                          << " <= " << RC.C << "): " << Diff;
      if (!Diff.empty())
        return; // one counterexample is enough
      if (Incr.isBottom()) {
        // Restart the chain: ⊥ admits no further constraints.
        Current = freshOctagon(NumVars);
        Current.close();
      } else {
        Current = Incr; // continue from the incrementally-maintained value
      }
    }
  }
}

/// Multiple constraints between closures: both x and y rows change before a
/// single closeIncremental(x, y), as evalAssign does.
TEST(OctagonIncrementalClosure, PairedConstraintsMatchFullClosure) {
  for (uint64_t Seed = 100; Seed < 115; ++Seed) {
    Rng R(Seed);
    size_t NumVars = 3 + R.below(4);
    Octagon Current = freshOctagon(NumVars);
    Current.close();
    for (unsigned Step = 0; Step < 30; ++Step) {
      size_t X = R.below(NumVars);
      size_t Y;
      do {
        Y = R.below(NumVars);
      } while (Y == X);
      int64_t C = R.range(-6, 12);
      int64_t Slack = R.range(0, 3);
      Octagon Full = Current, Incr = Current;
      // x − y ≤ c and −x + y ≤ −c + slack (an equality-like band).
      for (Octagon *O : {&Full, &Incr}) {
        O->addConstraint(X, true, Y, false, C);
        O->addConstraint(X, false, Y, true, -C + Slack);
      }
      Full.close();
      Incr.closeIncremental(X, Y);
      std::string Diff = diffOctagons(Full, Incr);
      ASSERT_EQ(Diff, "") << "seed " << Seed << " step " << Step;
      if (Incr.isBottom()) {
        Current = freshOctagon(NumVars);
        Current.close();
      } else {
        Current = Incr;
      }
    }
  }
}

/// Batch form: k variables touched by a pile of random constraints, then a
/// single closeIncrementalMulti over the touched set must agree entrywise
/// with a full re-closure — the assume-chain pattern (one O(k·n²) pass).
TEST(OctagonIncrementalClosure, MultiPivotBatchesMatchFullClosure) {
  for (uint64_t Seed = 200; Seed < 220; ++Seed) {
    Rng R(Seed);
    size_t NumVars = 2 + R.below(6); // 2..7 variables
    Octagon Current = freshOctagon(NumVars);
    Current.close();
    for (unsigned Step = 0; Step < 25; ++Step) {
      unsigned BatchSize = 1 + static_cast<unsigned>(R.below(5));
      Octagon Full = Current, Incr = Current;
      std::vector<size_t> Touched;
      for (unsigned B = 0; B < BatchSize; ++B) {
        RandomConstraint RC = randomConstraint(R, NumVars);
        Full.addConstraint(RC.X, RC.PosX, RC.Y, RC.PosY, RC.C);
        Incr.addConstraint(RC.X, RC.PosX, RC.Y, RC.PosY, RC.C);
        Touched.push_back(RC.X); // duplicates exercised deliberately
        if (RC.Y != npos)
          Touched.push_back(RC.Y);
      }
      Full.close();
      Incr.closeIncrementalMulti(Touched);
      std::string Diff = diffOctagons(Full, Incr);
      ASSERT_EQ(Diff, "") << "seed " << Seed << " step " << Step
                          << " batch of " << BatchSize << ": " << Diff;
      if (Incr.isBottom()) {
        Current = freshOctagon(NumVars);
        Current.close();
      } else {
        Current = Incr;
      }
    }
  }
}

TEST(OctagonIncrementalClosure, MultiPivotCountsOneIncrementalClose) {
  Octagon O = freshOctagon(4);
  O.close();
  O.addConstraint(0, true, npos, true, 5);
  O.addConstraint(1, true, npos, true, 7);
  O.addConstraint(2, false, 3, true, 1);
  ClosureCounters Before = closureCounters();
  O.closeIncrementalMulti({0, 1, 2, 3});
  ClosureCounters Delta = closureCounters() - Before;
  EXPECT_EQ(Delta.IncrementalCloses, 1u) << "one batch = one re-closure";
  EXPECT_EQ(Delta.FullCloses, 0u);
  EXPECT_TRUE(O.isClosed());
}

TEST(OctagonIncrementalClosure, MultiPivotDetectsBottom) {
  Octagon O = freshOctagon(3);
  O.close();
  // x ≤ 1 and −x ≤ −4 (x ≥ 4): contradictory unary band on one variable,
  // plus an unrelated constraint on another.
  O.addConstraint(0, true, npos, true, 1);
  O.addConstraint(0, false, npos, true, -4);
  O.addConstraint(1, true, 2, false, 3);
  O.closeIncrementalMulti({0, 1, 2});
  EXPECT_TRUE(O.isBottom());
}

TEST(OctagonIncrementalClosure, UnaryContradictionIsBottom) {
  Octagon O = freshOctagon(2);
  O.close();
  O.addConstraint(0, true, npos, true, 3); // v0 ≤ 3
  O.closeIncremental(0);
  ASSERT_FALSE(O.isBottom());
  O.addConstraint(0, false, npos, true, -5); // −v0 ≤ −5, i.e. v0 ≥ 5
  O.closeIncremental(0);
  EXPECT_TRUE(O.isBottom());
}

TEST(OctagonIncrementalClosure, BinaryContradictionIsBottom) {
  Octagon O = freshOctagon(2);
  O.close();
  O.addConstraint(0, true, 1, false, 1); // v0 − v1 ≤ 1
  O.closeIncremental(0, 1);
  ASSERT_FALSE(O.isBottom());
  O.addConstraint(1, true, 0, false, -2); // v1 − v0 ≤ −2 ⇒ cycle weight −1
  O.closeIncremental(1, 0);
  EXPECT_TRUE(O.isBottom());
}

TEST(OctagonIncrementalClosure, HalfIntegerContradictionIsBottom) {
  // 2x ≤ 1 together with −2x ≤ −1 admits only x = ½: empty over the
  // integers. The strengthening step must detect this in both closures.
  for (bool Incremental : {false, true}) {
    Octagon O = freshOctagon(1);
    O.close();
    size_t Pos = 0, Neg = 1;
    O.set(Neg, Pos, 1);  // 2·v0 ≤ 1
    O.set(Pos, Neg, -1); // −2·v0 ≤ −1
    O.Closed = false;
    if (Incremental)
      O.closeIncremental(0);
    else
      O.close();
    EXPECT_TRUE(O.isBottom()) << (Incremental ? "incremental" : "full");
  }
}

TEST(OctagonIncrementalClosure, TransitiveBoundPropagates) {
  // v0 ≤ 2 and v1 − v0 ≤ 3 must imply v1 ≤ 5 after incremental closure.
  Octagon O = freshOctagon(2);
  O.close();
  O.addConstraint(0, true, npos, true, 2);
  O.closeIncremental(0);
  O.addConstraint(1, true, 0, false, 3);
  O.closeIncremental(1, 0);
  ASSERT_FALSE(O.isBottom());
  Interval B = O.boundsOf("v1");
  EXPECT_EQ(B.hi(), 5);
}

TEST(OctagonIncrementalClosure, CountersDistinguishFullFromIncremental) {
  ClosureCounters Before = closureCounters();
  Octagon O = freshOctagon(3);
  O.close(); // fresh unconstrained value is already closed: a skip
  O.addConstraint(0, true, 1, false, 4);
  O.closeIncremental(0, 1);
  O.Closed = false; // force a genuine full re-closure
  O.close();
  O.close(); // and a skip
  ClosureCounters Delta = closureCounters() - Before;
  EXPECT_EQ(Delta.IncrementalCloses, 1u);
  EXPECT_EQ(Delta.FullCloses, 1u);
  EXPECT_EQ(Delta.ClosesSkipped, 2u);
}

/// The interval fallback of assume re-imports the bounds of the refined
/// projection. A condition that refines nothing lowers no cell, so the
/// value comes back closed and no closure runs; one that does refine pays
/// exactly one incremental closure.
TEST(OctagonIncrementalClosure, FallbackAssumeThatRefinesNothingStaysClosed) {
  ExprPtr X = Expr::mkVar("fb_x");
  auto Cmp = [&](BinaryOp Op, int64_t C) {
    return Expr::mkBinary(Op, X, Expr::mkInt(C));
  };
  Octagon In = OctagonDomain::assume(
      OctagonDomain::assume(Octagon::top(), Cmp(BinaryOp::Ge, 0)),
      Cmp(BinaryOp::Le, 10));
  ASSERT_TRUE(In.isClosed());
  ASSERT_EQ(In.boundsOf("fb_x"), Interval::range(0, 10));

  // x != 3 is not octagonal (the fallback runs) and cannot move [0, 10].
  ClosureCounters Before = closureCounters();
  Octagon Same = OctagonDomain::assume(In, Cmp(BinaryOp::Ne, 3));
  ClosureCounters Delta = closureCounters() - Before;
  EXPECT_TRUE(Same.isClosed());
  EXPECT_TRUE(OctagonDomain::equal(Same, In));
  EXPECT_EQ(Delta.IncrementalCloses, 0u);
  EXPECT_EQ(Delta.FullCloses, 0u);

  // x != 10 lowers the upper bound: one incremental closure.
  Before = closureCounters();
  Octagon Lowered = OctagonDomain::assume(In, Cmp(BinaryOp::Ne, 10));
  Delta = closureCounters() - Before;
  EXPECT_TRUE(Lowered.isClosed());
  EXPECT_EQ(Lowered.boundsOf("fb_x"), Interval::range(0, 9));
  EXPECT_EQ(Delta.IncrementalCloses, 1u);
  EXPECT_EQ(Delta.FullCloses, 0u);
}

/// addConstraint reports whether it lowered a cell, and one that lowers
/// none leaves the flag and the matrix alone.
TEST(OctagonIncrementalClosure, ImpliedConstraintKeepsClosedFlag) {
  Octagon O = freshOctagon(2);
  O.close();
  ASSERT_TRUE(O.addConstraint(0, true, npos, true, 5)); // v0 ≤ 5
  EXPECT_FALSE(O.isClosed());
  O.closeIncremental(0);
  ASSERT_TRUE(O.isClosed());
  Octagon Copy = O;
  EXPECT_FALSE(O.addConstraint(0, true, npos, true, 7)); // implied by v0 ≤ 5
  EXPECT_FALSE(O.addConstraint(0, true, 1, true, Interval::kPosInf));
  EXPECT_TRUE(O.isClosed());
  EXPECT_EQ(diffOctagons(Copy, O), "");
}

} // namespace
