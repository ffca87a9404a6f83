//===-- tests/name_intern_test.cpp - Hash-consed Name property suite ------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Safety net for the hash-consed NameTable (daig/name.h): a structural
/// reference oracle — the pre-interning shared_ptr tree implementation,
/// reproduced here verbatim — is driven in lockstep with the interned Name
/// through randomized construction sequences (leaves, pairs, iters, nested
/// interleavings). Equality, the total order, toString, and hashes must be
/// bit-identical to the structural semantics; interning itself must be
/// sound (structurally equal ⇒ same id) and complete (distinct ⇒ distinct
/// ids). Plus a directed regression: kind() on an invalid Name is the
/// well-defined Kind::Invalid sentinel (previously a null dereference).
///
//===----------------------------------------------------------------------===//

#include "daig/name.h"

#include "support/hashing.h"
#include "support/rng.h"
#include "support/statistics.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

using namespace dai;

namespace {

//===----------------------------------------------------------------------===//
// Structural reference oracle: the pre-interning Name, shared_ptr trees with
// recursive structural equality/order — semantics the interned class must
// reproduce exactly.
//===----------------------------------------------------------------------===//

class RefName {
public:
  using Kind = Name::Kind;

  RefName() = default;

  static RefName loc(Loc L) { return leaf(Kind::Loc, L); }
  static RefName num(uint64_t N) { return leaf(Kind::Num, N); }
  static RefName pair(const RefName &L, const RefName &R) {
    auto N = std::make_shared<Node>();
    N->K = Kind::Pair;
    N->L = L.Ptr;
    N->R = R.Ptr;
    N->Hash = hashCombine(hashCombine(0x9a17ULL, L.hash()), R.hash());
    return RefName(std::move(N));
  }
  static RefName iter(const RefName &Base, uint32_t Count) {
    auto N = std::make_shared<Node>();
    N->K = Kind::Iter;
    N->A = Count;
    N->L = Base.Ptr;
    N->Hash = hashCombine(hashCombine(0x17e8ULL, Base.hash()), Count);
    return RefName(std::move(N));
  }

  bool valid() const { return Ptr != nullptr; }
  uint64_t hash() const { return Ptr ? Ptr->Hash : 0; }

  bool operator==(const RefName &O) const {
    return nodeEquals(Ptr.get(), O.Ptr.get());
  }
  bool operator<(const RefName &O) const {
    uint64_t HA = hash(), HB = O.hash();
    if (HA != HB)
      return HA < HB;
    return nodeCompare(Ptr.get(), O.Ptr.get()) < 0;
  }

  std::string toString() const { return nodeToString(Ptr.get()); }

private:
  struct Node {
    Kind K;
    uint64_t A = 0;
    std::shared_ptr<const Node> L, R;
    uint64_t Hash = 0;
  };
  std::shared_ptr<const Node> Ptr;

  explicit RefName(std::shared_ptr<const Node> N) : Ptr(std::move(N)) {}

  static RefName leaf(Kind K, uint64_t A) {
    auto N = std::make_shared<Node>();
    N->K = K;
    N->A = A;
    N->Hash = hashValues(static_cast<uint64_t>(K) + 0x51ULL, A);
    return RefName(std::move(N));
  }

  static bool nodeEquals(const Node *A, const Node *B) {
    if (A == B)
      return true;
    if (!A || !B)
      return false;
    if (A->Hash != B->Hash || A->K != B->K || A->A != B->A)
      return false;
    return nodeEquals(A->L.get(), B->L.get()) &&
           nodeEquals(A->R.get(), B->R.get());
  }

  static int nodeCompare(const Node *A, const Node *B) {
    if (A == B)
      return 0;
    if (!A)
      return -1;
    if (!B)
      return 1;
    if (A->K != B->K)
      return A->K < B->K ? -1 : 1;
    if (A->A != B->A)
      return A->A < B->A ? -1 : 1;
    if (int C = nodeCompare(A->L.get(), B->L.get()))
      return C;
    return nodeCompare(A->R.get(), B->R.get());
  }

  static std::string nodeToString(const Node *N) {
    if (!N)
      return "<invalid>";
    std::ostringstream OS;
    switch (N->K) {
    case Kind::Loc:
      OS << "l" << N->A;
      break;
    case Kind::Num:
      OS << N->A;
      break;
    case Kind::Pair:
      OS << nodeToString(N->L.get()) << "." << nodeToString(N->R.get());
      break;
    case Kind::Iter:
      OS << nodeToString(N->L.get()) << "(" << N->A << ")";
      break;
    case Kind::Invalid:
      break; // the oracle never builds Invalid nodes
    }
    return OS.str();
  }
};

/// One lockstep-constructed pair of names.
struct Pair {
  Name N;
  RefName R;
};

/// Builds a random name through BOTH implementations with the identical
/// construction sequence, reusing earlier names as pair/iter children so
/// interleaved nesting (pairs of iters of pairs …) and cross-tree sharing
/// both occur.
Pair randomName(Rng &Rng, std::vector<Pair> &Pool) {
  uint64_t Roll = Rng.below(100);
  if (Pool.size() >= 2 && Roll < 30) {
    const Pair &L = Pool[Rng.below(Pool.size())];
    const Pair &R = Pool[Rng.below(Pool.size())];
    return Pair{Name::pair(L.N, R.N), RefName::pair(L.R, R.R)};
  }
  if (!Pool.empty() && Roll < 55) {
    const Pair &B = Pool[Rng.below(Pool.size())];
    uint32_t Count = static_cast<uint32_t>(Rng.below(4));
    return Pair{Name::iter(B.N, Count), RefName::iter(B.R, Count)};
  }
  // Leaves draw from small pools so collisions (re-interning) are common.
  if (Rng.below(2) == 0) {
    Loc L = static_cast<Loc>(Rng.below(6));
    return Pair{Name::loc(L), RefName::loc(L)};
  }
  uint64_t V = Rng.below(5);
  return Pair{Name::num(V), RefName::num(V)};
}

//===----------------------------------------------------------------------===//
// The lockstep property suite
//===----------------------------------------------------------------------===//

TEST(NameIntern, LockstepEqualityOrderToStringHash) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng R(Seed);
    std::vector<Pair> Pool;
    for (unsigned Step = 0; Step < 120; ++Step)
      Pool.push_back(randomName(R, Pool));

    for (const Pair &P : Pool) {
      EXPECT_EQ(P.N.hash(), P.R.hash()) << P.R.toString();
      EXPECT_EQ(P.N.toString(), P.R.toString());
      EXPECT_TRUE(P.N.valid());
    }
    for (size_t I = 0; I < Pool.size(); ++I) {
      for (size_t J = 0; J < Pool.size(); ++J) {
        const Pair &A = Pool[I], &B = Pool[J];
        bool RefEq = A.R == B.R;
        EXPECT_EQ(A.N == B.N, RefEq)
            << A.R.toString() << " vs " << B.R.toString();
        // Hash-consing: structural equality ⟺ id equality.
        EXPECT_EQ(A.N.id() == B.N.id(), RefEq);
        EXPECT_EQ(A.N < B.N, A.R < B.R)
            << A.R.toString() << " vs " << B.R.toString();
      }
    }
  }
}

TEST(NameIntern, TotalOrderIsStrictWeak) {
  Rng R(99);
  std::vector<Pair> Pool;
  for (unsigned Step = 0; Step < 60; ++Step)
    Pool.push_back(randomName(R, Pool));
  for (size_t I = 0; I < Pool.size(); ++I) {
    EXPECT_FALSE(Pool[I].N < Pool[I].N) << "irreflexive";
    for (size_t J = 0; J < Pool.size(); ++J) {
      bool AB = Pool[I].N < Pool[J].N;
      bool BA = Pool[J].N < Pool[I].N;
      if (Pool[I].N == Pool[J].N)
        EXPECT_TRUE(!AB && !BA) << "equal names are unordered";
      else
        EXPECT_NE(AB, BA) << "distinct names are strictly ordered";
    }
  }
}

TEST(NameIntern, HashStableAcrossInterleavedNesting) {
  // The same structure reached through different construction orders (and
  // at different times) must be the same id with the same hash.
  Name A1 = Name::iter(Name::pair(Name::loc(3), Name::num(1)), 2);
  Name Deep = Name::pair(A1, Name::iter(A1, 0));
  // Rebuild from scratch, children first in a different order.
  Name NumFirst = Name::num(1);
  Name LocSecond = Name::loc(3);
  Name A2 = Name::iter(Name::pair(LocSecond, NumFirst), 2);
  Name Deep2 = Name::pair(A2, Name::iter(A2, 0));
  EXPECT_EQ(A1.id(), A2.id());
  EXPECT_EQ(Deep.id(), Deep2.id());
  EXPECT_EQ(Deep.hash(), Deep2.hash());
  EXPECT_EQ(Deep, Deep2);
  EXPECT_EQ(Deep.toString(), "l3.1(2).l3.1(2)(0)");
}

TEST(NameIntern, AccessorsRoundTrip) {
  Name L = Name::loc(7);
  EXPECT_EQ(L.kind(), Name::Kind::Loc);
  EXPECT_EQ(L.locId(), 7u);
  Name N = Name::num(42);
  EXPECT_EQ(N.numValue(), 42u);
  Name P = Name::pair(L, N);
  EXPECT_EQ(P.kind(), Name::Kind::Pair);
  EXPECT_EQ(P.left(), L);
  EXPECT_EQ(P.right(), N);
  Name I = Name::iter(P, 3);
  EXPECT_EQ(I.kind(), Name::Kind::Iter);
  EXPECT_EQ(I.iterBase(), P);
  EXPECT_EQ(I.iterCount(), 3u);
}

/// Leaf hashes and the structural order read the kind values, so retiring
/// a kind must not renumber the others: every cell name keeps its hash.
TEST(NameIntern, KindValuesArePinned) {
  EXPECT_EQ(static_cast<int>(Name::Kind::Loc), 0);
  EXPECT_EQ(static_cast<int>(Name::Kind::Num), 2);
  EXPECT_EQ(static_cast<int>(Name::Kind::Pair), 4);
  EXPECT_EQ(static_cast<int>(Name::Kind::Iter), 5);
  EXPECT_EQ(Name::loc(3).hash(), hashValues(0x51ULL, 3));
  EXPECT_EQ(Name::num(3).hash(), hashValues(0x53ULL, 3));
}

/// Regression: the pre-interning kind() dereferenced a null node on a
/// default-constructed Name (undefined behavior); it now returns the
/// documented Kind::Invalid sentinel, and the other invalid-name queries
/// stay well-defined too.
TEST(NameIntern, InvalidNameIsWellDefined) {
  Name Invalid;
  EXPECT_FALSE(Invalid.valid());
  EXPECT_EQ(Invalid.kind(), Name::Kind::Invalid);
  EXPECT_EQ(Invalid.hash(), 0u);
  EXPECT_EQ(Invalid.id(), kNoName);
  EXPECT_EQ(Invalid.toString(), "<invalid>");
  EXPECT_EQ(Invalid, Name());
  // The structural order puts the invalid name below every valid one
  // whenever hashes tie (and hash 0 ties with nothing in practice).
  Name SomeName = Name::loc(0);
  EXPECT_NE(Invalid, SomeName);
  EXPECT_TRUE(Invalid < SomeName || SomeName < Invalid) << "still ordered";
}

TEST(NameIntern, CountersTrackHitsAndGrowth) {
  NameTableCounters Before = nameTableCounters();
  // A fresh, never-before-interned leaf (value chosen to be unique to this
  // test) grows the table; re-constructing it is a hit.
  Name A = Name::num(0x5eedf00d12345678ULL);
  NameTableCounters AfterNew = nameTableCounters();
  EXPECT_EQ(AfterNew.NamesInterned, Before.NamesInterned + 1);
  Name B = Name::num(0x5eedf00d12345678ULL);
  NameTableCounters AfterHit = nameTableCounters();
  EXPECT_EQ(AfterHit.NamesInterned, AfterNew.NamesInterned);
  EXPECT_EQ(AfterHit.InternHits, AfterNew.InternHits + 1);
  EXPECT_EQ(A.id(), B.id());
  EXPECT_GT(AfterHit.NameTableBytes, 0u);
}

/// The cell names a DAIG builds have small, structured fields — consecutive
/// locations, join indices 1–3, iteration counts 0–3 — so their structural
/// hashes cluster. The dedup index must still spread them: over such a set,
/// each intern call may examine only a few slots past the first (indexed by
/// the raw structural hash, this set walked about two hundred per call).
TEST(NameIntern, DaigShapedNamesProbeFewSlots) {
  constexpr Loc Base = 7000000; // beyond every location the other tests name
  constexpr Loc NumLocs = 3000;
  NameTableCounters Before = nameTableCounters();
  for (unsigned Pass = 0; Pass < 2; ++Pass) // interning, then all hits
    for (Loc L = Base; L < Base + NumLocs; ++L) {
      Name Here = Name::loc(L);
      for (uint64_t Idx = 1; Idx <= 3; ++Idx) {
        // Statement cell of join in-edge Idx, and its pre-join cell.
        (void)Name::pair(Name::num(Idx),
                         Name::pair(Name::loc(L - Idx), Here));
        (void)Name::pair(Name::num(Idx), Name::iter(Here, 0));
      }
      // State cells under two nested loops, iterates 0–3 each.
      for (uint32_t Outer = 0; Outer < 4; ++Outer)
        for (uint32_t Inner = 0; Inner < 4; ++Inner)
          (void)Name::iter(Name::iter(Here, Outer), Inner);
    }
  NameTableCounters D = nameTableCounters() - Before;
  uint64_t Calls = D.NamesInterned + D.InternHits;
  ASSERT_GT(D.NamesInterned, 50000u);
  EXPECT_LE(D.InternExtraProbes, 4 * Calls)
      << D.InternExtraProbes << " extra probes over " << Calls << " calls";
}

} // namespace
