//===-- tests/symbol_resolution_test.cpp - Names resolved once ------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Safety nets for the flat domain environments and for resolving variable
/// names when a program is built. SymbolMap (domain/symbol_map.h) runs in
/// lockstep with std::map through seeded random insert, overwrite, erase
/// and find sequences, and after every step both hold the same entries in
/// the same order; its merge walk, intersect, matches the same walk over
/// std::map. A loop-and-branch program without calls, once built,
/// is analysed under constprop, interval, dis_interval, octagon and zone —
/// DAIG construction, a query of every location, a statement edit and the
/// re-queries — and, for intervals, checked incrementally: none of it
/// probes the symbol table.
///
//===----------------------------------------------------------------------===//

#include "domain/symbol_map.h"

#include "analysis/checker.h"
#include "daig/daig.h"
#include "domain/constprop.h"
#include "domain/dis_interval.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "domain/zone.h"
#include "support/rng.h"
#include "support/statistics.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>

using namespace dai;
using namespace dai::test;

namespace {

//===----------------------------------------------------------------------===//
// SymbolMap against std::map
//===----------------------------------------------------------------------===//

int64_t valueOf(Rng &R, int64_t) { return R.range(-1000, 1000); }
std::string valueOf(Rng &R, const std::string &) {
  return std::string(1 + R.below(24), static_cast<char>('a' + R.below(26)));
}

/// Same size, same keys in the same (ascending) order, same values.
template <class V>
::testing::AssertionResult sameEntries(const SymbolMap<V> &Flat,
                                       const std::map<SymbolId, V> &Ref) {
  if (Flat.size() != Ref.size())
    return ::testing::AssertionFailure()
           << "size " << Flat.size() << " vs " << Ref.size();
  auto RI = Ref.begin();
  for (const auto &[K, Val] : Flat) {
    if (K != RI->first || !(Val == RI->second))
      return ::testing::AssertionFailure() << "entry for key " << K
                                           << " differs from key "
                                           << RI->first;
    ++RI;
  }
  return ::testing::AssertionSuccess();
}

template <class V> void runLockstep(uint64_t Seed) {
  Rng R(Seed);
  SymbolMap<V> Flat;
  std::map<SymbolId, V> Ref;
  // Small key spaces revisit keys (overwrites, erases that hit); large ones
  // mostly insert.
  SymbolId KeySpace = static_cast<SymbolId>(2 + R.below(80));
  for (unsigned Step = 0; Step < 600; ++Step) {
    SymbolId K = static_cast<SymbolId>(R.below(KeySpace));
    unsigned Op = static_cast<unsigned>(R.below(100));
    if (Op < 45) { // insert or overwrite
      V Val = valueOf(R, V());
      Flat[K] = Val;
      Ref[K] = Val;
    } else if (Op < 55) { // operator[] on a missing key value-initializes
      EXPECT_TRUE(Flat[K] == Ref[K]) << "seed " << Seed << " step " << Step;
    } else if (Op < 80) {
      ASSERT_EQ(Flat.erase(K), Ref.erase(K))
          << "seed " << Seed << " step " << Step;
    } else if (Op < 95) {
      const SymbolMap<V> &CFlat = Flat;
      auto FI = CFlat.find(K);
      auto RI = Ref.find(K);
      ASSERT_EQ(FI == CFlat.end(), RI == Ref.end())
          << "seed " << Seed << " step " << Step;
      if (RI != Ref.end()) {
        EXPECT_TRUE(FI->second == RI->second);
      }
    } else { // a copy is equal, and an edit of it is not
      SymbolMap<V> Copy = Flat;
      EXPECT_TRUE(Copy == Flat);
      Copy[KeySpace] = valueOf(R, V());
      EXPECT_FALSE(Copy == Flat);
    }
    ASSERT_TRUE(sameEntries(Flat, Ref)) << "seed " << Seed << " step " << Step;
  }
}

TEST(SymbolMap, LockstepWithStdMap) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    runLockstep<int64_t>(Seed);
    runLockstep<std::string>(Seed);
  }
}

/// intersect against the same walk over std::map: keys bound on both
/// sides whose values agree keep their value, the others are left out.
TEST(SymbolMap, IntersectMatchesStdMap) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    Rng R(Seed);
    SymbolMap<int64_t> A, B;
    std::map<SymbolId, int64_t> RefA, RefB;
    SymbolId KeySpace = static_cast<SymbolId>(1 + R.below(40));
    for (unsigned I = 0, N = static_cast<unsigned>(R.below(40)); I < N; ++I) {
      SymbolId K = static_cast<SymbolId>(R.below(KeySpace));
      int64_t V = R.range(0, 3);
      A[K] = RefA[K] = V;
    }
    for (unsigned I = 0, N = static_cast<unsigned>(R.below(40)); I < N; ++I) {
      SymbolId K = static_cast<SymbolId>(R.below(KeySpace));
      int64_t V = R.range(0, 3);
      B[K] = RefB[K] = V;
    }
    SymbolMap<int64_t> Both = SymbolMap<int64_t>::intersect(
        A, B, [](int64_t X, int64_t Y) -> std::optional<int64_t> {
          if (X != Y)
            return std::nullopt;
          return X;
        });
    std::map<SymbolId, int64_t> RefBoth;
    for (const auto &[K, V] : RefA)
      if (auto It = RefB.find(K); It != RefB.end() && It->second == V)
        RefBoth[K] = V;
    EXPECT_TRUE(sameEntries(Both, RefBoth)) << "seed " << Seed;
  }
}

TEST(SymbolMap, AppendBuildsInKeyOrder) {
  SymbolMap<int64_t> M;
  M.reserve(3);
  M.append(2, 20);
  M.append(5, 50);
  M.append(9, 90);
  std::map<SymbolId, int64_t> Ref{{2, 20}, {5, 50}, {9, 90}};
  EXPECT_TRUE(sameEntries(M, Ref));
  M[4] = 40;
  Ref[4] = 40;
  EXPECT_TRUE(sameEntries(M, Ref));
}

//===----------------------------------------------------------------------===//
// No symbol-table probes once the program is built
//===----------------------------------------------------------------------===//

constexpr const char *LoopAndBranch = R"(
function main(n) {
  var i = 0;
  var s = 0;
  var t = n;
  while (i < n) {
    if (i % 2 == 0) {
      s = s + i;
    } else {
      s = s - 1;
      t = t + s;
    }
    if (s == 4) {
      t = 0;
    }
    i = i + 1;
  }
  assert(s >= -100);
  return s + t;
}
)";

/// Symbol-table probes made by analysing \p F under \p D: DAIG
/// construction, a query of every location, an edit of `s = 0` to
/// \p Edit (built before counting, as a client builds it) and the
/// re-queries.
template <typename D> uint64_t probesToAnalyse(Function &F, Stmt Edit) {
  CfgInfo Info = analyzeCfg(F.Body);
  EdgeId Init = edgeOf(F.Body, "s = 0");
  uint64_t Before = nameTableCounters().SymbolProbes;
  {
    Daig<D> G(&F.Body, D::initialEntry(F.Params));
    for (Loc L : Info.Rpo)
      (void)G.queryLocation(L);
    EXPECT_TRUE(G.applyStatementEdit(Init, std::move(Edit)));
    for (Loc L : Info.Rpo)
      (void)G.queryLocation(L);
  }
  return nameTableCounters().SymbolProbes - Before;
}

TEST(SymbolProbes, AnalysisMakesNoProbes) {
  // Building the program is where names resolve: a fresh vocabulary
  // probes the table.
  uint64_t Built = nameTableCounters().SymbolProbes;
  Function F = mustLowerFn(LoopAndBranch, "main");
  EXPECT_GT(nameTableCounters().SymbolProbes, Built);

  const Stmt Edit = Stmt::mkAssign("s", Expr::mkInt(3));
  EXPECT_EQ(probesToAnalyse<ConstPropDomain>(F, Edit), 0u) << "constprop";
  F = mustLowerFn(LoopAndBranch, "main");
  EXPECT_EQ(probesToAnalyse<IntervalDomain>(F, Edit), 0u) << "interval";
  F = mustLowerFn(LoopAndBranch, "main");
  EXPECT_EQ(probesToAnalyse<DisIntervalDomain>(F, Edit), 0u)
      << "dis_interval";
  F = mustLowerFn(LoopAndBranch, "main");
  EXPECT_EQ(probesToAnalyse<OctagonDomain>(F, Edit), 0u) << "octagon";
  F = mustLowerFn(LoopAndBranch, "main");
  EXPECT_EQ(probesToAnalyse<ZoneDomain>(F, Edit), 0u) << "zone";
}

TEST(SymbolProbes, IncrementalCheckingMakesNoProbes) {
  Function F = mustLowerFn(LoopAndBranch, "main");
  Stmt Edit = Stmt::mkAssign("s", Expr::mkInt(-200));
  EdgeId Init = edgeOf(F.Body, "s = 0");
  uint64_t Before = nameTableCounters().SymbolProbes;
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  IncrementalChecker<IntervalDomain> Checker(G, F.Body);
  VerdictCounts First = Checker.recheck();
  ASSERT_TRUE(G.applyStatementEdit(Init, std::move(Edit)));
  VerdictCounts Second = Checker.recheck();
  EXPECT_EQ(nameTableCounters().SymbolProbes - Before, 0u);
  EXPECT_GT(First.total(), 0u);
  EXPECT_EQ(First.total(), Second.total());
}

} // namespace
