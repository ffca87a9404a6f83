//===-- tests/dis_interval_test.cpp - Disjunctive interval oracle ---------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential lockstep oracle for DisIntervalDomain against its
/// specification, IntervalDomain:
///
///  - Soundness-with-precision: after any identical chain of transfer /
///    assume / join steps, the disjunctive state's convex hull is ≤ the
///    interval state (never less precise). Raw widening is deliberately
///    excluded from these chains at K > 1 — pairwise widening of partition
///    lists is incomparable step-by-step with hull widening; its own
///    containment law (hull of the disjunctive widen ⊑ interval widen of
///    the hulls) is pinned separately below.
///
///  - Degeneration: at K = 1 (DisIntervalPartitionScope), every operation
///    INCLUDING widening produces exactly the interval result.
///
///  - Strict wins: targeted path-sensitive cases where the partition list
///    refutes what the convex hull cannot.
///
//===----------------------------------------------------------------------===//

#include "domain/dis_interval.h"
#include "domain/interval.h"
#include "support/rng.h"
#include "support/statistics.h"

#include <gtest/gtest.h>

using namespace dai;

namespace {

ExprPtr var(const std::string &N) { return Expr::mkVar(N); }
ExprPtr lit(int64_t V) { return Expr::mkInt(V); }
ExprPtr bin(BinaryOp Op, ExprPtr L, ExprPtr R) {
  return Expr::mkBinary(Op, std::move(L), std::move(R));
}

/// Numeric statements only — both domains implement the identical transfer
/// on them, so lockstep comparison is meaningful. The Or-guard is the
/// partition source (case 4) and the Ne-guard the partition splitter.
Stmt randomLockstepStmt(Rng &R) {
  std::string X = "v" + std::to_string(R.below(4));
  std::string Y = "v" + std::to_string(R.below(4));
  auto CmpOp = [&R] {
    switch (R.below(6)) {
    case 0: return BinaryOp::Lt;
    case 1: return BinaryOp::Le;
    case 2: return BinaryOp::Gt;
    case 3: return BinaryOp::Ge;
    case 4: return BinaryOp::Eq;
    default: return BinaryOp::Ne;
    }
  };
  switch (R.below(8)) {
  case 0:
    return Stmt::mkAssign(X, lit(R.range(-9, 9)));
  case 1:
    return Stmt::mkAssign(X, bin(BinaryOp::Add, var(Y), lit(R.range(-5, 5))));
  case 2:
    return Stmt::mkAssign(X, bin(BinaryOp::Sub, var(Y), var(X)));
  case 3:
    return Stmt::mkAssign(X, bin(BinaryOp::Mul, var(Y), lit(R.range(-3, 3))));
  case 4: {
    int64_t Lo = R.range(-9, -1), Hi = R.range(1, 9);
    return Stmt::mkAssume(bin(BinaryOp::Or,
                              bin(BinaryOp::Le, var(X), lit(Lo)),
                              bin(BinaryOp::Ge, var(X), lit(Hi))));
  }
  case 5:
    return Stmt::mkAssume(bin(CmpOp(), var(X), lit(R.range(-9, 9))));
  case 6:
    return Stmt::mkAssume(bin(CmpOp(), var(X), var(Y)));
  default: {
    std::vector<ExprPtr> Elems;
    unsigned N = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I < N; ++I)
      Elems.push_back(lit(R.range(-9, 9)));
    return Stmt::mkAssign(X, Expr::mkArray(std::move(Elems)));
  }
  }
}

/// hull(D) ⊑ I — the disjunctive run is never less precise than the
/// interval run over the same program.
void expectHullLeq(const DisIntervalState &D, const IntervalState &I,
                   const std::string &Ctx) {
  EXPECT_TRUE(IntervalDomain::leq(D.hullState(), I))
      << Ctx << "\n  dis hull: " << IntervalDomain::toString(D.hullState())
      << "\n  interval: " << IntervalDomain::toString(I);
}

//===----------------------------------------------------------------------===//
// Lockstep sweeps
//===----------------------------------------------------------------------===//

class DisIntervalLockstep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DisIntervalLockstep, HullNeverLessPreciseThanInterval) {
  // K = 4 (the default): partitions survive, so the disjunctive state may
  // be strictly tighter but must stay contained. No raw widen here — see
  // the file comment; WidenContainedInIntervalWiden covers it.
  DisIntervalPartitionScope K(4);
  Rng R(GetParam());
  for (unsigned Run = 0; Run < 30; ++Run) {
    DisIntervalState D = DisIntervalDomain::initialEntry({});
    IntervalState I = IntervalDomain::initialEntry({});
    unsigned Steps = 2 + static_cast<unsigned>(R.below(10));
    for (unsigned S = 0; S < Steps; ++S) {
      if (R.percent(20)) {
        // Join with a sibling chain, applied identically on both sides.
        DisIntervalState DS = DisIntervalDomain::initialEntry({});
        IntervalState IS = IntervalDomain::initialEntry({});
        unsigned M = static_cast<unsigned>(R.below(4));
        for (unsigned J = 0; J < M; ++J) {
          Stmt St = randomLockstepStmt(R);
          DS = DisIntervalDomain::transfer(St, DS);
          IS = IntervalDomain::transfer(St, IS);
        }
        D = DisIntervalDomain::join(D, DS);
        I = IntervalDomain::join(I, IS);
      } else {
        Stmt St = randomLockstepStmt(R);
        D = DisIntervalDomain::transfer(St, D);
        I = IntervalDomain::transfer(St, I);
      }
      expectHullLeq(D, I, "after step " + std::to_string(S));
    }
    // Precision refinement: if the interval run proves ⊥, the (tighter)
    // disjunctive run must have proven it too.
    if (IntervalDomain::isBottom(I)) {
      EXPECT_TRUE(DisIntervalDomain::isBottom(D));
    }
  }
}

TEST_P(DisIntervalLockstep, DegeneratesToIntervalAtK1) {
  // At K = 1 every partition list collapses to its hull, and ALL
  // operations — widening included — must agree with the interval domain
  // bit-for-bit (same states, so same hashes and memo behavior).
  DisIntervalPartitionScope K(1);
  Rng R(GetParam());
  for (unsigned Run = 0; Run < 30; ++Run) {
    DisIntervalState D = DisIntervalDomain::initialEntry({});
    IntervalState I = IntervalDomain::initialEntry({});
    unsigned Steps = 2 + static_cast<unsigned>(R.below(10));
    for (unsigned S = 0; S < Steps; ++S) {
      switch (R.below(4)) {
      case 0: { // widen against a sibling chain
        DisIntervalState DS = DisIntervalDomain::initialEntry({});
        IntervalState IS = IntervalDomain::initialEntry({});
        unsigned M = static_cast<unsigned>(R.below(3));
        for (unsigned J = 0; J < M; ++J) {
          Stmt St = randomLockstepStmt(R);
          DS = DisIntervalDomain::transfer(St, DS);
          IS = IntervalDomain::transfer(St, IS);
        }
        D = DisIntervalDomain::widen(D, DisIntervalDomain::join(D, DS));
        I = IntervalDomain::widen(I, IntervalDomain::join(I, IS));
        break;
      }
      case 1: { // join
        Stmt St = randomLockstepStmt(R);
        D = DisIntervalDomain::join(D, DisIntervalDomain::transfer(St, D));
        I = IntervalDomain::join(I, IntervalDomain::transfer(St, I));
        break;
      }
      default: {
        Stmt St = randomLockstepStmt(R);
        D = DisIntervalDomain::transfer(St, D);
        I = IntervalDomain::transfer(St, I);
      }
      }
      EXPECT_TRUE(IntervalDomain::equal(D.hullState(), I))
          << "K=1 divergence at step " << S
          << "\n  dis:      " << DisIntervalDomain::toString(D)
          << "\n  interval: " << IntervalDomain::toString(I);
      EXPECT_EQ(DisIntervalDomain::isBottom(D), IntervalDomain::isBottom(I));
    }
  }
}

TEST_P(DisIntervalLockstep, WidenContainedInIntervalWiden) {
  // The K > 1 widening law: hull(P ∇ N) ⊑ hull(P) ∇ hull(N). The pairwise
  // partition widening is meet-clamped by the hull widening exactly so this
  // holds — the disjunctive domain can never report a wider post-widening
  // range than the plain interval domain would.
  DisIntervalPartitionScope K(4);
  Rng R(GetParam());
  for (unsigned Run = 0; Run < 60; ++Run) {
    DisIntervalState P = DisIntervalDomain::initialEntry({});
    DisIntervalState Step = DisIntervalDomain::initialEntry({});
    unsigned M = 1 + static_cast<unsigned>(R.below(5));
    for (unsigned J = 0; J < M; ++J)
      P = DisIntervalDomain::transfer(randomLockstepStmt(R), P);
    for (unsigned J = 0; J < M; ++J)
      Step = DisIntervalDomain::transfer(randomLockstepStmt(R), Step);
    DisIntervalState N = DisIntervalDomain::join(P, Step);
    DisIntervalState W = DisIntervalDomain::widen(P, N);
    // Widening is an upper bound of both arguments...
    EXPECT_TRUE(DisIntervalDomain::leq(P, W));
    EXPECT_TRUE(DisIntervalDomain::leq(N, W));
    // ...and its hull is inside the interval-widened hulls.
    IntervalState IW = IntervalDomain::widen(P.hullState(), N.hullState());
    expectHullLeq(W, IW, "widen containment");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisIntervalLockstep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

//===----------------------------------------------------------------------===//
// Targeted strict-precision wins
//===----------------------------------------------------------------------===//

TEST(DisIntervalTest, BranchJoinStaysExact) {
  // x == 0 or x == 10, then x == 5: the partition list {0, 10} refutes 5;
  // the convex hull [0, 10] cannot.
  Stmt B0 = Stmt::mkAssume(bin(BinaryOp::Eq, var("x"), lit(0)));
  Stmt B1 = Stmt::mkAssume(bin(BinaryOp::Eq, var("x"), lit(10)));
  Stmt Probe = Stmt::mkAssume(bin(BinaryOp::Eq, var("x"), lit(5)));

  DisIntervalState D = DisIntervalDomain::join(
      DisIntervalDomain::transfer(B0, DisIntervalDomain::initialEntry({})),
      DisIntervalDomain::transfer(B1, DisIntervalDomain::initialEntry({})));
  EXPECT_EQ(D.get("x").Num.numParts(), 2u);
  EXPECT_FALSE(D.get("x").Num.contains(5));
  EXPECT_TRUE(
      DisIntervalDomain::isBottom(DisIntervalDomain::transfer(Probe, D)));

  IntervalState I = IntervalDomain::join(
      IntervalDomain::transfer(B0, IntervalDomain::initialEntry({})),
      IntervalDomain::transfer(B1, IntervalDomain::initialEntry({})));
  EXPECT_FALSE(IntervalDomain::isBottom(IntervalDomain::transfer(Probe, I)));
}

TEST(DisIntervalTest, GuardPrunesWholePartitions) {
  // x ∈ [0,1] ∪ [9,10], then x >= 2: the disjunctive state drops the low
  // partition entirely ([9,10]); the interval state only trims to [2,10].
  Stmt Disj = Stmt::mkAssume(
      bin(BinaryOp::Or,
          bin(BinaryOp::And, bin(BinaryOp::Ge, var("x"), lit(0)),
              bin(BinaryOp::Le, var("x"), lit(1))),
          bin(BinaryOp::And, bin(BinaryOp::Ge, var("x"), lit(9)),
              bin(BinaryOp::Le, var("x"), lit(10)))));
  Stmt Guard = Stmt::mkAssume(bin(BinaryOp::Ge, var("x"), lit(2)));

  DisIntervalState D = DisIntervalDomain::transfer(
      Guard,
      DisIntervalDomain::transfer(Disj, DisIntervalDomain::initialEntry({})));
  EXPECT_EQ(D.get("x").Num.hull(), Interval::range(9, 10));

  IntervalState I = IntervalDomain::transfer(
      Guard, IntervalDomain::transfer(Disj, IntervalDomain::initialEntry({})));
  EXPECT_EQ(I.get("x").Num, Interval::range(2, 10));
  // Strictly tighter, and still contained (the lockstep invariant).
  EXPECT_TRUE(IntervalDomain::leq(D.hullState(), I));
  EXPECT_FALSE(IntervalDomain::leq(I, D.hullState()));
}

TEST(DisIntervalTest, NeSplitsInteriorPartition) {
  // x ∈ [0,10], then x != 5: a convex interval cannot remove an interior
  // point; the disjunctive domain splits into [0,4] ∪ [6,10].
  uint64_t SplitsBefore = disIntervalCounters().PartitionSplits;
  DisIntervalState D = DisIntervalDomain::initialEntry({});
  D = DisIntervalDomain::transfer(
      Stmt::mkAssume(bin(BinaryOp::And, bin(BinaryOp::Ge, var("x"), lit(0)),
                         bin(BinaryOp::Le, var("x"), lit(10)))),
      D);
  D = DisIntervalDomain::transfer(
      Stmt::mkAssume(bin(BinaryOp::Ne, var("x"), lit(5))), D);
  ASSERT_EQ(D.get("x").Num.numParts(), 2u);
  EXPECT_EQ(D.get("x").Num.parts()[0], Interval::range(0, 4));
  EXPECT_EQ(D.get("x").Num.parts()[1], Interval::range(6, 10));
  EXPECT_FALSE(D.get("x").Num.contains(5));
  EXPECT_GT(disIntervalCounters().PartitionSplits, SplitsBefore);
}

TEST(DisIntervalTest, GapRefutesEqualityHullCannot) {
  DisInterval A = DisInterval::fromInterval(Interval::range(0, 1))
                      .join(DisInterval::fromInterval(Interval::range(9, 10)));
  DisInterval B = DisInterval::constant(5);
  // The hulls overlap ([0,10] vs {5}), so hull-based equality is unknown —
  // but 5 falls in the gap, so the partition list refutes it.
  EXPECT_EQ(A.hull().cmpEq(Interval::constant(5)), TriBool::Unknown);
  EXPECT_EQ(A.cmpEq(B), TriBool::False);
  // Lt/Le stay hull-based (deliberately identical to the interval domain).
  EXPECT_EQ(A.cmpLt(B), A.hull().cmpLt(Interval::constant(5)));
}

//===----------------------------------------------------------------------===//
// Partition bound K and its counters
//===----------------------------------------------------------------------===//

TEST(DisIntervalTest, PartitionCapForcesCountedCollapse) {
  DisIntervalPartitionScope K(2);
  uint64_t Before = disIntervalCounters().PartitionsCollapsed;
  // Three well-separated constants under K = 2: normalization must merge
  // the closest pair ({0,10,100} → {[0,10],[100,100]}) and count it.
  DisInterval D = DisInterval::constant(0)
                      .join(DisInterval::constant(10))
                      .join(DisInterval::constant(100));
  EXPECT_EQ(D.numParts(), 2u);
  EXPECT_GT(disIntervalCounters().PartitionsCollapsed, Before);
  // The closest-gap heuristic merged 0 and 10, not 10 and 100.
  EXPECT_EQ(D.parts()[0], Interval::range(0, 10));
  EXPECT_EQ(D.parts()[1], Interval::constant(100));
  // Still sound: every original point is covered.
  for (int64_t V : {0, 10, 100})
    EXPECT_TRUE(D.contains(V));
  EXPECT_FALSE(D.contains(50));
}

TEST(DisIntervalTest, DisjunctiveJoinCounterFires) {
  uint64_t Before = disIntervalCounters().DisjunctiveJoins;
  DisInterval D = DisInterval::constant(0).join(DisInterval::constant(10));
  EXPECT_EQ(D.numParts(), 2u);
  EXPECT_GT(disIntervalCounters().DisjunctiveJoins, Before);
}

TEST(DisIntervalTest, AdjacentPartsCoalesceWithoutCollapseCount) {
  uint64_t Before = disIntervalCounters().PartitionsCollapsed;
  // [0,4] ∪ [5,9] is contiguous — coalescing it is normalization, not a
  // precision-losing K-collapse, so the gate counter must NOT move.
  DisInterval D = DisInterval::fromInterval(Interval::range(0, 4))
                      .join(DisInterval::fromInterval(Interval::range(5, 9)));
  EXPECT_EQ(D.numParts(), 1u);
  EXPECT_EQ(D.hull(), Interval::range(0, 9));
  EXPECT_EQ(disIntervalCounters().PartitionsCollapsed, Before);
}

TEST(DisIntervalTest, CountersAggregateAcrossThreads) {
  // The DisInterval counter family must ride the same ThreadCounters
  // snapshot/delta plumbing the zone and staged counters use — the bench
  // gate reads the aggregated numbers.
  ThreadCounters Snap = ThreadCounters::snapshot();
  {
    DisIntervalPartitionScope K(2);
    (void)DisInterval::constant(0)
        .join(DisInterval::constant(10))
        .join(DisInterval::constant(100));
  }
  ThreadCounters Delta = ThreadCounters::snapshot().deltaSince(Snap);
  EXPECT_GT(Delta.DisInterval.PartitionsCollapsed, 0u);
  EXPECT_GT(Delta.DisInterval.DisjunctiveJoins, 0u);
}

TEST(DisIntervalTest, HashSeparatesStatesThePlainCombineFoldConfused) {
  // Found by search: a plain hashCombine fold hashes these two states alike
  // (see IntervalHash in interval_domain_test.cpp).
  DisIntervalState A, B;
  A.set(SymbolId(2),
        DisVarAbs::numeric(DisInterval::fromInterval(Interval::atLeast(1))));
  B.set(SymbolId(3),
        DisVarAbs::numeric(DisInterval::fromInterval(Interval::atLeast(-2))));
  ASSERT_FALSE(DisIntervalDomain::equal(A, B));
  EXPECT_NE(DisIntervalDomain::hash(A), DisIntervalDomain::hash(B));
}

} // namespace
