//===-- tests/daig_support_test.cpp - Memo table & support tests ----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Remaining public surface: the auxiliary memo table (lookup/store/evict
/// semantics over shared handles, MemoKey equality, its observable effect
/// on Q-Match, and the name table staying flat under fresh values), the
/// DAIG sharing one value object per result, statistics accounting,
/// the deterministic RNG, and DAIG introspection APIs (queryAllLocations,
/// exit cell naming).
///
//===----------------------------------------------------------------------===//

#include "daig/memo_table.h"

#include "daig/daig.h"
#include "domain/constprop.h"
#include "domain/interval.h"
#include "support/hashing.h"
#include "support/rng.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

/// A transfer key over a fixed statement hash; \p H stands for the input.
MemoKey key(uint64_t H) { return {FnKind::Transfer, {0x5717, H}}; }

/// \p V as a shared value, the form the memo table stores.
MemoTable<ConstPropDomain>::ElemPtr share(ConstState V) {
  return std::make_shared<const ConstState>(std::move(V));
}

TEST(MemoTable, StoreLookupRoundTrip) {
  MemoTable<ConstPropDomain> M;
  MemoKey K = key(0x1234);
  EXPECT_EQ(M.lookup(K), nullptr);
  ConstState V;
  V.setVar("x", 7);
  MemoTable<ConstPropDomain>::ElemPtr Stored = share(V);
  M.store(K, Stored);
  auto Hit = M.lookup(K);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->get("x"), std::optional<int64_t>(7));
  EXPECT_EQ(Hit, Stored) << "a hit hands out the stored object itself";
  EXPECT_EQ(M.size(), 1u);
}

TEST(MemoTable, OverwriteKeepsSingleEntry) {
  MemoTable<ConstPropDomain> M;
  MemoKey K = key(9);
  ConstState A, B;
  A.setVar("x", 1);
  B.setVar("x", 2);
  M.store(K, share(A));
  M.store(K, share(B));
  EXPECT_EQ(M.size(), 1u);
  EXPECT_EQ(M.lookup(K)->get("x"), std::optional<int64_t>(2));
}

TEST(MemoTable, EvictsLeastRecentlyUsedBeyondCap) {
  MemoTable<ConstPropDomain> M(/*MaxEntries=*/3);
  for (uint64_t I = 0; I < 5; ++I)
    M.store(key(I), share(ConstState()));
  EXPECT_EQ(M.size(), 3u);
  // No lookups intervened, so recency order is insertion order.
  EXPECT_EQ(M.lookup(key(0)), nullptr);
  EXPECT_EQ(M.lookup(key(1)), nullptr);
  EXPECT_NE(M.lookup(key(4)), nullptr);
}

TEST(MemoTable, LookupRefreshesRecency) {
  MemoTable<ConstPropDomain> M(/*MaxEntries=*/3);
  for (uint64_t I = 0; I < 3; ++I)
    M.store(key(I), share(ConstState()));
  // Touch the oldest entry; the next insertion must evict key(1).
  EXPECT_NE(M.lookup(key(0)), nullptr);
  M.store(key(3), share(ConstState()));
  EXPECT_EQ(M.size(), 3u);
  EXPECT_NE(M.lookup(key(0)), nullptr) << "touched: survives";
  EXPECT_EQ(M.lookup(key(1)), nullptr) << "LRU: evicted";
  EXPECT_NE(M.lookup(key(3)), nullptr);
}

TEST(MemoTable, StoreRefreshesRecencyAndCountsEvictions) {
  Statistics Stats;
  MemoTable<ConstPropDomain> M(/*MaxEntries=*/2);
  M.attachStatistics(&Stats);
  ConstState A;
  A.setVar("x", 1);
  M.store(key(0), share(ConstState()));
  M.store(key(1), share(ConstState()));
  M.store(key(0), share(A)); // overwrite refreshes recency of 0
  M.store(key(2), share(ConstState()));
  EXPECT_EQ(Stats.MemoEvictions, 1u);
  EXPECT_EQ(M.lookup(key(1)), nullptr) << "LRU: evicted";
  ASSERT_NE(M.lookup(key(0)), nullptr);
  EXPECT_EQ(M.lookup(key(0))->get("x"), std::optional<int64_t>(1));
  EXPECT_EQ(Stats.MemoHits, 2u);
  EXPECT_EQ(Stats.MemoMisses, 1u);
}

TEST(MemoTable, LruEvictionUnderMultiInputKeys) {
  Statistics Stats;
  MemoTable<ConstPropDomain> M(/*MaxEntries=*/3);
  M.attachStatistics(&Stats);
  // Keys built afresh on every call: equal tuples must alias one entry.
  auto joinKey = [](uint64_t I) {
    return MemoKey{FnKind::Join, {I, I % 3, 0x10}};
  };
  for (uint64_t I = 0; I < 5; ++I) {
    ConstState V;
    V.setVar("x", static_cast<int64_t>(I));
    M.store(joinKey(I), share(V));
  }
  EXPECT_EQ(M.size(), 3u);
  // Insertion order was recency order: 0 and 1 were evicted.
  EXPECT_EQ(M.lookup(joinKey(0)), nullptr);
  EXPECT_EQ(M.lookup(joinKey(1)), nullptr);
  ASSERT_NE(M.lookup(joinKey(4)), nullptr);
  EXPECT_EQ(M.lookup(joinKey(4))->get("x"), std::optional<int64_t>(4));
  EXPECT_EQ(Stats.MemoEvictions, 2u);

  // Touch the oldest survivor; the next store must evict joinKey(3).
  EXPECT_NE(M.lookup(joinKey(2)), nullptr);
  ConstState V5;
  V5.setVar("x", 5);
  M.store(joinKey(5), share(V5));
  EXPECT_NE(M.lookup(joinKey(2)), nullptr) << "touched: survives";
  EXPECT_EQ(M.lookup(joinKey(3)), nullptr) << "LRU: evicted";
  EXPECT_EQ(M.lookup(joinKey(5))->get("x"), std::optional<int64_t>(5));
}

TEST(MemoKey, OnlyEqualTuplesShareAnEntry) {
  MemoTable<ConstPropDomain> M;
  ConstState A, B;
  A.setVar("x", 1);
  B.setVar("x", 2);
  M.store(MemoKey{FnKind::Transfer, {11, 22}}, share(A));
  M.store(MemoKey{FnKind::Join, {11, 22, 33}}, share(B));
  EXPECT_EQ(M.size(), 2u);

  // Separately built equal keys hit the stored entries.
  MemoKey SameTransfer{FnKind::Transfer, {11, 22}};
  ASSERT_NE(M.lookup(SameTransfer), nullptr);
  EXPECT_EQ(M.lookup(SameTransfer)->get("x"), std::optional<int64_t>(1));
  MemoKey SameJoin{FnKind::Join, {11, 22, 33}};
  ASSERT_NE(M.lookup(SameJoin), nullptr);
  EXPECT_EQ(M.lookup(SameJoin)->get("x"), std::optional<int64_t>(2));

  // Only the function symbol differs: widen over the transfer's hashes.
  EXPECT_EQ(M.lookup(MemoKey{FnKind::Widen, {11, 22}}), nullptr);
  // Only the input order differs.
  EXPECT_EQ(M.lookup(MemoKey{FnKind::Transfer, {22, 11}}), nullptr);
  // Only the arity differs: the 3-input join's 2-input prefix.
  EXPECT_EQ(M.lookup(MemoKey{FnKind::Join, {11, 22}}), nullptr);
  EXPECT_EQ(M.size(), 2u);
}

TEST(MemoKey, HashCollisionsDoNotAlias) {
  // Solve hashCombine(H, Last) == Target for Last, so two distinct tuples
  // share one hash() — and so one bucket.
  MemoKey A{FnKind::Transfer, {1, 2}};
  uint64_t H = hashCombine(static_cast<uint64_t>(FnKind::Transfer), 3);
  uint64_t Last =
      (A.hash() ^ H) - 0x9e3779b97f4a7c15ULL - (H << 12) - (H >> 4);
  MemoKey B{FnKind::Transfer, {3, Last}};
  ASSERT_EQ(A.hash(), B.hash());
  ASSERT_FALSE(A == B);

  MemoTable<ConstPropDomain> M;
  ConstState V;
  V.setVar("x", 1);
  M.store(A, share(V));
  EXPECT_EQ(M.lookup(B), nullptr) << "equal hashes, distinct tuples";
  M.store(B, share(ConstState()));
  EXPECT_EQ(M.size(), 2u);
  EXPECT_EQ(M.lookup(A)->get("x"), std::optional<int64_t>(1));
}

/// Memo keys are values, not cell keys: one program shape analysed under
/// fresh constants computes fresh values (memo misses), and each DAIG of
/// that shape inserts exactly one key per cell, the same number every time.
TEST(MemoTable, FreshValuesInternNoNames) {
  Statistics Stats;
  MemoTable<ConstPropDomain> Memo;
  Memo.attachStatistics(&Stats);
  uint64_t NamesAfterFirst = 0;
  for (int C = 1; C <= 48; ++C) {
    Function F = mustLowerFn("function main(c) {\n"
                             "  var x = " + std::to_string(C) + ";\n"
                             "  var y = x * 2;\n"
                             "  if (c > 0) { y = y + x; } else { y = 1; }\n"
                             "  var i = 0;\n"
                             "  while (i < 3) { i = i + 1; }\n"
                             "  return x + y;\n"
                             "}",
                             "main");
    uint64_t MissesBefore = Stats.MemoMisses;
    uint64_t NamesBefore = nameTableCounters().NamesInterned;
    Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry(F.Params),
                            &Stats, &Memo);
    (void)G.queryLocation(F.Body.exit());
    EXPECT_GT(Stats.MemoMisses, MissesBefore) << "constant " << C;
    uint64_t Names = nameTableCounters().NamesInterned - NamesBefore;
    EXPECT_EQ(Names, G.cellCount()) << "constant " << C;
    if (C == 1)
      NamesAfterFirst = Names;
    else
      EXPECT_EQ(Names, NamesAfterFirst) << "constant " << C;
  }
}

TEST(MemoTable, SharedAcrossDaigsEnablesQMatch) {
  // Two DAIGs over identical programs share a memo table: the second's
  // query must be answered by Q-Match (no transfers at all).
  Function F1 = mustLowerFn("function main() { var x = 1; return x + 1; }",
                            "main");
  Function F2 = mustLowerFn("function main() { var x = 1; return x + 1; }",
                            "main");
  Statistics Stats;
  MemoTable<ConstPropDomain> Memo;
  Memo.attachStatistics(&Stats);
  Daig<ConstPropDomain> G1(&F1.Body, ConstPropDomain::initialEntry({}),
                           &Stats, &Memo);
  (void)G1.queryLocation(F1.Body.exit());
  uint64_t TransfersAfterFirst = Stats.Transfers;
  EXPECT_GT(TransfersAfterFirst, 0u);

  Daig<ConstPropDomain> G2(&F2.Body, ConstPropDomain::initialEntry({}),
                           &Stats, &Memo);
  (void)G2.queryLocation(F2.Body.exit());
  EXPECT_EQ(Stats.Transfers, TransfersAfterFirst)
      << "identical computations must memo-match";
  EXPECT_GT(Stats.MemoHits, 0u);
}

//===----------------------------------------------------------------------===//
// One shared value per result
//===----------------------------------------------------------------------===//

/// A constant-propagation state that counts copy constructions and copy
/// assignments of itself: the copies the DAIG and the memo table make. The
/// domain's own copies inside an operation copy the inner ConstState and
/// are not counted.
struct CountedState {
  ConstState S;
  static inline uint64_t Copies = 0;

  CountedState() = default;
  CountedState(ConstState S) : S(std::move(S)) {}
  CountedState(const CountedState &O) : S(O.S) { ++Copies; }
  CountedState(CountedState &&) = default;
  CountedState &operator=(const CountedState &O) {
    S = O.S;
    ++Copies;
    return *this;
  }
  CountedState &operator=(CountedState &&) = default;
};

/// ConstPropDomain over CountedState; also counts its join calls.
struct CopyCountingDomain {
  using Elem = CountedState;
  using Base = ConstPropDomain;
  static inline uint64_t JoinCalls = 0;

  static Elem bottom() { return Base::bottom(); }
  static Elem initialEntry(const std::vector<std::string> &Params) {
    return Base::initialEntry(Params);
  }
  static Elem transfer(const Stmt &S, const Elem &In) {
    return Base::transfer(S, In.S);
  }
  static Elem join(const Elem &A, const Elem &B) {
    ++JoinCalls;
    return Base::join(A.S, B.S);
  }
  static Elem widen(const Elem &A, const Elem &B) {
    return Base::widen(A.S, B.S);
  }
  static bool leq(const Elem &A, const Elem &B) { return Base::leq(A.S, B.S); }
  static bool equal(const Elem &A, const Elem &B) {
    return Base::equal(A.S, B.S);
  }
  static uint64_t hash(const Elem &A) { return Base::hash(A.S); }
  static std::string toString(const Elem &A) { return Base::toString(A.S); }
  static const char *name() { return "copy_counting_constprop"; }
  static bool isBottom(const Elem &A) { return Base::isBottom(A.S); }
  static Elem enterCall(const Elem &A, const Stmt &S,
                        const std::vector<std::string> &Params) {
    return Base::enterCall(A.S, S, Params);
  }
  static Elem exitCall(const Elem &A, const Elem &B, const Stmt &S) {
    return Base::exitCall(A.S, B.S, S);
  }
};
static_assert(AbstractDomain<CopyCountingDomain>);

/// A loop, and a three-way join at the exit (one in-edge per return).
constexpr const char *SharedValuesSource = R"(
  function main(c) {
    var i = 0;
    var s = 0;
    while (i < 4) {
      s = s + 2;
      i = i + 1;
    }
    if (c > 0) { return s; }
    if (c < 0) { return i; }
    return 7;
  })";

TEST(SharedValues, FirstQueryCopiesOnlyItsAnswer) {
  Function F = mustLowerFn(SharedValuesSource, "main");
  Statistics Stats;
  MemoTable<CopyCountingDomain> Memo;
  Memo.attachStatistics(&Stats);
  uint64_t CopiesBefore = CountedState::Copies;
  uint64_t JoinsBefore = CopyCountingDomain::JoinCalls;
  Daig<CopyCountingDomain> G(
      &F.Body, CopyCountingDomain::initialEntry(F.Params), &Stats, &Memo);
  CountedState Exit = G.queryLocation(F.Body.exit());
  EXPECT_LE(CountedState::Copies - CopiesBefore, 1u)
      << "cells, memo entries and fix cells share one object per result; "
         "only the answer leaves by value";

  // The query did the work: transfers, an unrolled loop, the join.
  EXPECT_GT(Stats.Transfers, 0u);
  EXPECT_GT(Stats.Widens, 0u);
  EXPECT_GT(Stats.Unrollings, 0u);
  // k inputs take k − 1 joins.
  size_t InDegree = G.info().fwdEdgesTo(F.Body.exit()).size();
  ASSERT_EQ(InDegree, 3u);
  EXPECT_EQ(CopyCountingDomain::JoinCalls - JoinsBefore, InDegree - 1);
  EXPECT_EQ(Stats.Joins, InDegree - 1);
  EXPECT_EQ(G.checkAiConsistency(), "");

  // Same answer as the plain domain.
  Daig<ConstPropDomain> Plain(&F.Body, ConstPropDomain::initialEntry(F.Params));
  EXPECT_TRUE(ConstPropDomain::equal(Exit.S, Plain.queryLocation(F.Body.exit())));
}

TEST(SharedValues, MemoMatchedQueryCopiesOnlyItsAnswer) {
  Function F1 = mustLowerFn(SharedValuesSource, "main");
  Function F2 = mustLowerFn(SharedValuesSource, "main");
  Statistics Stats;
  MemoTable<CopyCountingDomain> Memo;
  Memo.attachStatistics(&Stats);
  Daig<CopyCountingDomain> G1(
      &F1.Body, CopyCountingDomain::initialEntry(F1.Params), &Stats, &Memo);
  CountedState First = G1.queryLocation(F1.Body.exit());

  Statistics AfterFirst = Stats;
  uint64_t CopiesBefore = CountedState::Copies;
  Daig<CopyCountingDomain> G2(
      &F2.Body, CopyCountingDomain::initialEntry(F2.Params), &Stats, &Memo);
  CountedState Second = G2.queryLocation(F2.Body.exit());
  EXPECT_LE(CountedState::Copies - CopiesBefore, 1u)
      << "a memo hit hands the stored object to the cell it fills";

  // Answered entirely by Q-Match: no transfer, join or widen ran.
  EXPECT_EQ(Stats.Transfers, AfterFirst.Transfers);
  EXPECT_EQ(Stats.Joins, AfterFirst.Joins);
  EXPECT_EQ(Stats.Widens, AfterFirst.Widens);
  EXPECT_GT(Stats.MemoHits, AfterFirst.MemoHits);
  EXPECT_TRUE(CopyCountingDomain::equal(First, Second));
  EXPECT_EQ(G2.checkAiConsistency(), "");
}

TEST(DaigIntrospection, QueryAllLocationsFillsEverything) {
  Function F = mustLowerFn(R"(
    function main(c) {
      var x = 0;
      if (c > 0) { x = 1; } else { x = 2; }
      return x;
    })",
                           "main");
  Statistics Stats;
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params),
                         &Stats);
  G.queryAllLocations();
  uint64_t Transfers = Stats.Transfers;
  G.queryAllLocations(); // second sweep: pure reuse
  EXPECT_EQ(Stats.Transfers, Transfers);
  EXPECT_EQ(G.checkAiConsistency(), "");
}

TEST(DaigIntrospection, ExitCellKeyIsQueryable) {
  Function F = mustLowerFn("function main() { return 3; }", "main");
  Daig<ConstPropDomain> G(&F.Body, ConstPropDomain::initialEntry({}));
  ASSERT_TRUE(G.hasCell(G.exitCellKey()));
  EXPECT_FALSE(G.cellHasValue(G.exitCellKey()));
  (void)G.queryState(G.exitCellKey());
  EXPECT_TRUE(G.cellHasValue(G.exitCellKey()));
}

TEST(Statistics, DifferenceOperator) {
  Statistics A, B;
  A.Transfers = 10;
  A.Joins = 4;
  B.Transfers = 3;
  B.Joins = 1;
  Statistics D = A - B;
  EXPECT_EQ(D.Transfers, 7u);
  EXPECT_EQ(D.Joins, 3u);
  EXPECT_EQ(A.domainOps(), 14u);
}

TEST(Rng, DeterministicAndInRange) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I) {
    uint64_t X = A.next();
    EXPECT_EQ(X, B.next());
    int64_t R = A.range(-5, 5);
    EXPECT_GE(R, -5);
    EXPECT_LE(R, 5);
    EXPECT_EQ(R, B.range(-5, 5));
    uint64_t U = A.below(7);
    EXPECT_LT(U, 7u);
    B.below(7);
  }
  // Different seeds diverge quickly.
  bool Diverged = false;
  Rng A2(42);
  for (int I = 0; I < 10 && !Diverged; ++I)
    Diverged = A2.next() != C.next();
  EXPECT_TRUE(Diverged);
}

TEST(Rng, PercentIsCalibrated) {
  Rng R(7);
  unsigned Hits = 0;
  const unsigned N = 20000;
  for (unsigned I = 0; I < N; ++I)
    if (R.percent(85))
      ++Hits;
  EXPECT_NEAR(Hits / double(N), 0.85, 0.02);
}

} // namespace
